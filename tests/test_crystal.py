import json
import tracemalloc
from dataclasses import replace

import pytest

from gtcrystal import (
    bijection,
    connectivity,
    crystal,
    enumerate_patterns,
    enumerate_tableaux,
    epsilon_gtp,
    evaluate,
    gtpattern,
    highest_weight_elements,
    pattern_model,
    pattern_to_tableau,
    raise_gtp,
    render_key,
    tableau_model,
    tableau_to_pattern,
    validate_pattern,
    verify_axioms,
    verify_isomorphism,
    weight_gtp,
)
from sweeps import full_sweep, lowering_edges, shape_sweep


@pytest.fixture
def shape310():
    elements = list(enumerate_patterns(3, (3, 1)))
    return pattern_model(3), elements


def test_lowering_edges_cover_the_crystal(shape310):
    # The crystal graph of (3,1,0), built from the lowering operator: every
    # element lies on one of its 18 edges.
    model, elements = shape310
    edges = lowering_edges(model, elements)
    assert {u for u, _i, _v in edges} | {v for _u, _i, v in edges} == set(elements)
    assert len(elements) == 15
    assert len(edges) == 18


def test_lowering_edges_degenerate_cases():
    elements = list(enumerate_patterns(1, (4,)))
    assert (len(elements), lowering_edges(pattern_model(1), elements)) == (1, [])
    elements = list(enumerate_patterns(2, (1,)))
    edges = lowering_edges(pattern_model(2), elements)
    assert (len(elements), len(edges)) == (2, 1)
    assert edges[0][1] == 1


def test_lowering_edges_include_escaping_images(shape310):
    # The lowering edges of a subset can leave it; connectivity ignores an
    # image outside the set.
    model, elements = shape310
    top = highest_weight_elements(model, elements)
    assert lowering_edges(model, top) == [
        (top[0], 1, validate_pattern(3, [[3, 1, 0], [3, 1], [2]])),
        (top[0], 2, validate_pattern(3, [[3, 1, 0], [3, 0], [3]])),
    ]
    assert top[0] == validate_pattern(3, [[3, 1, 0], [3, 1], [3]])
    assert connectivity(evaluate(model, top)) == 1


def test_one_component_with_one_source(shape310):
    # One component with one source: every element is reached from the
    # highest-weight element.
    model, elements = shape310
    assert connectivity(evaluate(model, elements)) == 1
    assert len(highest_weight_elements(model, elements)) == 1


def test_edges_form_label_disjoint_paths(shape310):
    model, elements = shape310
    edges = lowering_edges(model, elements)
    for label in model.labels:
        outgoing = [u for u, i, _v in edges if i == label]
        incoming = [v for _u, i, v in edges if i == label]
        assert len(outgoing) == len(set(outgoing))
        assert len(incoming) == len(set(incoming))
    for element in elements:
        for i in model.labels:
            expected = model.phi(element, i) + model.epsilon(element, i)
            steps = 0
            current = element
            while (down := model.lower(current, i)) is not None:
                current = down
                steps += 1
            current = element
            while (up := model.raise_(current, i)) is not None:
                current = up
                steps += 1
            assert steps == expected, f"string through {render_key(element.to_dict())} at label {i}"


def test_graphs_by_value_over_the_sweep():
    # For both models: the lower column of the evaluation holds exactly the
    # lowering images, its edges join all the elements into one component with
    # one highest-weight element, and the bijection maps the pattern edges one
    # to one onto the tableau edges (the twin graphs).
    for n, lam in full_sweep():
        pm, tm = pattern_model(n), tableau_model(n)
        patterns, tableaux = list(enumerate_patterns(n, lam)), list(enumerate_tableaux(n, lam))
        graphs = {}
        for model, elements in ((pm, patterns), (tm, tableaux)):
            evaluation = evaluate(model, elements)
            lower_column = [(b, i, row[i - 1][2]) for b, row in evaluation.rows.items() for i in model.labels]
            edges = [edge for edge in lower_column if edge[2] is not None]
            assert len(set(edges)) == len(edges)
            assert edges == lowering_edges(model, elements)
            assert connectivity(evaluation) == 1
            assert len(highest_weight_elements(model, elements)) == 1
            graphs[model.name] = set(edges)
        mapped = {(pattern_to_tableau(u), i, pattern_to_tableau(v)) for u, i, v in graphs["gtp"]}
        assert mapped == graphs["ssyt"] and len(mapped) == len(graphs["gtp"]), (n, lam)


def test_axioms_pass_for_both_models(shape310):
    model, elements = shape310
    assert verify_axioms(evaluate(model, elements)).passed
    tmodel = tableau_model(3)
    assert verify_axioms(evaluate(tmodel, list(enumerate_tableaux(3, (3, 1))))).passed


def test_axioms_flag_broken_lowering(shape310):
    model, elements = shape310
    from dataclasses import replace

    def broken_lower(p, i):
        # wrong domain: pretend the operator never applies for the top label
        if i == 2:
            return None
        import gtcrystal

        return gtcrystal.lower_gtp(p, i)

    broken = replace(model, lower=broken_lower)
    report = verify_axioms(evaluate(broken, elements))
    assert not report.passed
    assert any(v.rule == "lower-domain" for v in report.violations)


def test_violation_cap_limits_report(monkeypatch):
    # With phi = 99 every (element, label) pair fails twice: the pairing, and
    # the lower domain where no image exists or the phi step where one does.
    model = pattern_model(3)
    elements = list(enumerate_patterns(3, (4, 2)))
    expected = []
    for b in elements:
        for i in model.labels:
            down = model.lower(b, i)
            expected.append(("pairing", (b,), i))
            expected.append(("lower-domain", (b,), i) if down is None else ("phi-step", (b, down), i))
    assert len(expected) == 108
    rendered = []
    monkeypatch.setattr(crystal, "render_key", lambda data: rendered.append(data) or render_key(data))
    report = verify_axioms(evaluate(replace(model, phi=lambda p, i: 99), elements))
    # Witnesses are kept as values: building the report renders no key.
    assert rendered == []
    # Past 100 a report keeps counting: every violation is found, only the
    # first 100 are kept as witnesses, in element order.
    assert [(v.rule, v.elements, v.label) for v in report.violations] == expected[:100]
    assert report.found == 108 and not report.passed
    record = report.to_dict()
    assert record["violations"] == 108 and len(record["details"]) == 100
    # Rendering the report renders each element of a kept witness once.
    assert len(rendered) == sum(len(v.elements) for v in report.violations) == 132


def test_isomorphism_passes(shape310):
    model, elements = shape310
    side_b = evaluate(tableau_model(3), list(enumerate_tableaux(3, (3, 1))))
    report = verify_isomorphism(evaluate(model, elements), pattern_to_tableau, side_b)
    assert report.passed


def test_identity_map_is_isomorphism(shape310):
    model, elements = shape310
    side = evaluate(model, elements)
    assert verify_isomorphism(side, lambda p: p, side).passed


def test_isomorphism_detects_swapped_images(shape310):
    model, elements = shape310
    tabs = list(enumerate_tableaux(3, (3, 1)))
    # swap two same-weight images: breaks intertwining but not the weight check
    tmodel = tableau_model(3)
    by_weight = {}
    for t in tabs:
        by_weight.setdefault(tmodel.weight(t), []).append(t)
    pair = next(group for group in by_weight.values() if len(group) == 2)
    swap = {pair[0]: pair[1], pair[1]: pair[0]}

    def tweaked(p):
        image = pattern_to_tableau(p)
        return swap.get(image, image)

    report = verify_isomorphism(evaluate(model, elements), tweaked, evaluate(tmodel, tabs))
    assert not report.passed
    assert any(v.rule.endswith("intertwine") or v.rule in ("phi", "epsilon") for v in report.violations)


def counting_model(model):
    """The model with each of its five crystal data logging the element of
    every call it answers."""
    calls = {name: [] for name in ("weight", "phi", "epsilon", "lower", "raise_")}

    def counting(name):
        datum = getattr(model, name)

        def call(element, *args):
            calls[name].append(element)
            return datum(element, *args)

        return call

    return replace(model, **{name: counting(name) for name in calls}), calls


def counts(calls):
    """How many calls each datum of a ``counting_model`` answered."""
    return {name: len(elements) for name, elements in calls.items()}


def once(n, elements):
    """One weight call per element and one call of each operator per (element, label)."""
    pairs = len(elements) * (n - 1)
    return {"weight": len(elements), "phi": pairs, "epsilon": pairs, "lower": pairs, "raise_": pairs}


def forget(*logs):
    """Empty the call logs of ``counting_model``s."""
    for calls in logs:
        for elements in calls.values():
            elements.clear()


def test_evaluate_reads_the_model_once_per_element_and_label():
    # The weight once per element, then phi, epsilon, lower and raise once
    # per (element, label) in element and then label order; the evaluation
    # keeps its model.  A repeated element raises before any model read.
    n, lam = 4, (2, 1)
    patterns, tableaux = list(enumerate_patterns(n, lam)), list(enumerate_tableaux(n, lam))
    for model, elements in ((pattern_model(n), patterns), (tableau_model(n), tableaux)):
        counted, calls = counting_model(model)
        evaluation = evaluate(counted, elements)
        assert counts(calls) == once(n, elements)
        assert calls["weight"] == elements and calls["phi"] == [b for b in elements for _i in model.labels]
        assert evaluation.model is counted
        assert list(evaluation.weights) == list(evaluation.rows) == elements
        forget(calls)
        with pytest.raises(RuntimeError, match="not distinct"):
            evaluate(counted, elements + elements[:1])
        assert counts(calls) == dict.fromkeys(calls, 0)


def test_checks_make_no_model_call_on_a_passing_shape():
    # Given the evaluations, both axiom checks, the isomorphism check and
    # connectivity read every value from them and call neither model.
    n, lam = 4, (2, 1)
    (pm, pattern_calls), (tm, tableau_calls) = counting_model(pattern_model(n)), counting_model(tableau_model(n))
    side_a, side_b = evaluate(pm, list(enumerate_patterns(n, lam))), evaluate(tm, list(enumerate_tableaux(n, lam)))
    forget(pattern_calls, tableau_calls)
    assert verify_axioms(side_a).passed and verify_axioms(side_b).passed
    assert verify_isomorphism(side_a, pattern_to_tableau, side_b).passed
    assert connectivity(side_a) == connectivity(side_b) == 1
    assert counts(pattern_calls) == counts(tableau_calls) == dict.fromkeys(pattern_calls, 0)


def test_checks_call_the_model_only_on_an_image_outside_the_target(shape2):
    # On the input of test_into_target_witness the one model read left is of
    # T22, the image outside the target: one weight, one of each operator per label.
    pm, patterns, tm, tableaux = shape2
    (pm, pattern_calls), (tm, tableau_calls) = counting_model(pm), counting_model(tm)
    side_a, side_b = evaluate(pm, patterns), evaluate(tm, tableaux[:2])
    forget(pattern_calls, tableau_calls)
    assert verify_axioms(side_a).passed and not verify_axioms(side_b).passed
    assert not verify_isomorphism(side_a, pattern_to_tableau, side_b).passed
    outside = tableaux[2]
    assert counts(pattern_calls) == dict.fromkeys(pattern_calls, 0)
    assert tableau_calls == {name: [outside] * (1 if name == "weight" else tm.n - 1) for name in tableau_calls}


def test_verify_shape_evaluates_each_model_once(monkeypatch):
    # The axiom checks, the isomorphism check and connectivity read one
    # evaluation of each model.  highest_weight_elements still calls the
    # pattern model's epsilon itself, so only its other data are pinned.
    n, lam = 4, (2, 1)
    calls = {}
    for name in ("pattern_model", "tableau_model"):

        def factory(n, make=getattr(crystal, name), name=name):
            model, calls[name] = counting_model(make(n))
            return model

        monkeypatch.setattr(crystal, name, factory)
    assert crystal.verify_shape(n, lam)["pass"]
    elements = list(enumerate_patterns(n, lam))
    assert counts(calls["tableau_model"]) == once(n, elements)
    pattern = counts(calls["pattern_model"])
    assert pattern == {**once(n, elements), "epsilon": pattern["epsilon"]}


def test_evaluate_rejects_repeated_elements():
    # A repeated pattern or tableau (an equal, distinct object) makes evaluate
    # raise, so no check sees a repeat.  The injective rule stays pinned by
    # test_injective_and_surjective_witnesses, with a non-injective mapping.
    n, lam = 3, (2, 1)
    patterns, tableaux = list(enumerate_patterns(n, lam)), list(enumerate_tableaux(n, lam))
    again = tableau_to_pattern(pattern_to_tableau(patterns[0]))
    assert again == patterns[0] and again is not patterns[0]
    with pytest.raises(RuntimeError, match="not distinct"):
        evaluate(pattern_model(n), patterns + [again])
    again = pattern_to_tableau(tableau_to_pattern(tableaux[0]))
    assert again == tableaux[0] and again is not tableaux[0]
    with pytest.raises(RuntimeError, match="not distinct"):
        evaluate(tableau_model(n), tableaux + [again])


def test_highest_weight_elements(shape310):
    model, elements = shape310
    found = highest_weight_elements(model, elements)
    assert [p.rows for p in found] == [((3, 1, 0), (3, 1), (3,))]
    tfound = highest_weight_elements(tableau_model(3), list(enumerate_tableaux(3, (3, 1))))
    assert [t.rows for t in tfound] == [((1, 1, 1), (2,))]
    single = list(enumerate_patterns(1, (4,)))
    assert highest_weight_elements(pattern_model(1), single) == single


def test_connectivity(shape310):
    model, elements = shape310
    assert connectivity(evaluate(model, elements)) == 1
    assert connectivity(evaluate(pattern_model(1), list(enumerate_patterns(1, (4,))))) == 1
    two_copies = list(enumerate_patterns(2, (1,))) + list(enumerate_patterns(2, (2,)))
    assert connectivity(evaluate(pattern_model(2), two_copies)) == 2
    # Removing the middle of the string P0 - P1 - P2 splits it; the escaping
    # images are left to the closure rule, not raised.
    ends = list(enumerate_patterns(2, (2,)))[::2]
    assert connectivity(evaluate(pattern_model(2), ends)) == 2
    # On subsets of the crystal, which cut strings and leave images outside,
    # the count equals a plain relabelling over the lowering edges inside.
    edges = lowering_edges(model, elements)
    for subset in (elements, elements[::2], elements[1::3], elements[::-1], elements[:7] + elements[9:]):
        label = {b: k for k, b in enumerate(subset)}
        inside = [(u, v) for u, _i, v in edges if u in label and v in label]
        while any(label[u] != label[v] for u, v in inside):
            for u, v in inside:
                label[u] = label[v] = min(label[u], label[v])
        assert connectivity(evaluate(model, subset)) == len(set(label.values())), subset


def test_connectivity_keeps_little_memory():
    # The union-find keeps one parent per element, about 54 KB here; a walk
    # that keeps every lowering edge and a neighbour set per element peaks
    # near 1,164 KB above the live data on this shape.
    evaluation = evaluate(pattern_model(5), list(enumerate_patterns(5, (4, 3, 2, 1))))
    assert len(evaluation.rows) == 1024
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert connectivity(evaluation) == 1
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 200 * 1024


def test_render_key_is_injective():
    # Value equality and key equality agree: a == b exactly when their keys do.
    # Equal values are built twice, once directly and once through the
    # bijection and back, so equal elements are distinct objects too.
    for enumerate_model, rebuild in (
        (enumerate_patterns, lambda p: tableau_to_pattern(pattern_to_tableau(p))),
        (enumerate_tableaux, lambda t: pattern_to_tableau(tableau_to_pattern(t))),
    ):
        key_of_value: dict = {}
        value_of_key: dict = {}
        for n, lam in shape_sweep():
            for built in enumerate_model(n, lam):
                for element in (built, rebuild(built)):
                    key = render_key(element.to_dict())
                    assert key_of_value.setdefault(element, key) == key
                    assert value_of_key.setdefault(key, element) == element
        assert len(key_of_value) == len(value_of_key) > 100


def counting_lower(model, calls):
    """``model`` with a lowering that appends each (element, label) it is asked for to ``calls``."""
    return replace(model, lower=lambda b, i: calls.append((b, i)) or model.lower(b, i))


def test_duplicate_elements_rejected():
    # A repeat raises before the model is read.
    p = validate_pattern(2, [[1, 0], [1]])
    calls = []
    with pytest.raises(RuntimeError, match="elements are not distinct"):
        evaluate(counting_lower(pattern_model(2), calls), [p, p])
    assert calls == []
    # A closed set with one element repeated (as an equal, distinct object):
    # only the distinctness check can reject it, in the evaluation every
    # check reads.
    elements = list(enumerate_patterns(2, (1,)))
    repeated = elements + [validate_pattern(2, [list(row) for row in elements[0].rows])]
    with pytest.raises(RuntimeError, match="not distinct"):
        evaluate(pattern_model(2), repeated)


# Violation witnesses on the n = 2, shape (2) crystal (and n = 3, shape (1)),
# pinned byte for byte: rule, keys, label, expected and actual strings, in
# report order.
P0 = '{"n":2,"rows":[[2,0],[0]]}'
P1 = '{"n":2,"rows":[[2,0],[1]]}'
P2 = '{"n":2,"rows":[[2,0],[2]]}'
T11 = '{"n":2,"rows":[[1,1]],"shape":[2]}'
T12 = '{"n":2,"rows":[[1,2]],"shape":[2]}'
T22 = '{"n":2,"rows":[[2,2]],"shape":[2]}'
Q0 = '{"n":3,"rows":[[1,0,0],[0,0],[0]]}'
Q1 = '{"n":3,"rows":[[1,0,0],[1,0],[0]]}'
Q2 = '{"n":3,"rows":[[1,0,0],[1,0],[1]]}'


def rendered_report(violations):
    """The JSON of Report.to_dict() for these (rule, keys, label, expected, actual)
    witness rows, the only violations found."""
    record = {"pass": not violations, "violations": len(violations)}
    if violations:
        record["details"] = [
            {"rule": rule, "keys": list(keys), "label": label, "expected": expected, "actual": actual}
            for rule, keys, label, expected, actual in violations
        ]
    return json.dumps(record)


@pytest.fixture
def shape2():
    patterns = list(enumerate_patterns(2, (2,)))
    tableaux = list(enumerate_tableaux(2, (2,)))
    assert [p.rows[1] for p in patterns] == [(0,), (1,), (2,)]
    assert [t.rows for t in tableaux] == [((1, 1),), ((1, 2),), ((2, 2),)]
    return pattern_model(2), patterns, tableau_model(2), tableaux


def test_closure_witnesses(shape2):
    pm, patterns, tm, tableaux = shape2
    report = verify_axioms(evaluate(pm, [patterns[0], patterns[2]]))
    assert json.dumps(report.to_dict()) == rendered_report(
        [
            ("closure", (P0, P1), 1, "raising image inside the element set", "escaped"),
            ("closure", (P2, P1), 1, "lowering image inside the element set", "escaped"),
        ]
    )
    report = verify_axioms(evaluate(tm, [tableaux[0], tableaux[2]]))
    assert json.dumps(report.to_dict()) == rendered_report(
        [
            ("closure", (T11, T12), 1, "lowering image inside the element set", "escaped"),
            ("closure", (T22, T12), 1, "raising image inside the element set", "escaped"),
        ]
    )


def test_inverse_witnesses(shape2):
    pm, patterns, _tm, _tableaux = shape2
    lowest = patterns[0]

    def raise_to_lowest(p, i):
        return None if raise_gtp(p, i) is None else lowest

    report = verify_axioms(evaluate(replace(pm, raise_=raise_to_lowest), patterns))
    assert json.dumps(report.to_dict()) == rendered_report(
        [
            ("inverse", (P0, P0), 1, "lowering inverts raising", "None"),
            ("inverse", (P1, P0), 1, "raising inverts lowering", P0),
            ("inverse", (P1, P0), 1, "lowering inverts raising", "None"),
            ("inverse", (P2, P1), 1, "raising inverts lowering", P0),
        ]
    )


def test_truncated_witnesses():
    broken = replace(pattern_model(3), phi=lambda p, i: 99)
    report = verify_axioms(evaluate(broken, list(enumerate_patterns(3, (1,)))))
    assert json.dumps(report.to_dict()) == rendered_report(
        [
            ("pairing", (Q0,), 1, "phi - epsilon = 0", "99 - 0"),
            ("lower-domain", (Q0,), 1, "image iff phi > 0 (phi = 99)", "False"),
            ("pairing", (Q0,), 2, "phi - epsilon = -1", "99 - 1"),
            ("lower-domain", (Q0,), 2, "image iff phi > 0 (phi = 99)", "False"),
            ("pairing", (Q1,), 1, "phi - epsilon = -1", "99 - 1"),
            ("lower-domain", (Q1,), 1, "image iff phi > 0 (phi = 99)", "False"),
            ("pairing", (Q1,), 2, "phi - epsilon = 1", "99 - 0"),
            ("phi-step", (Q1, Q0), 2, "98", "99"),
            ("pairing", (Q2,), 1, "phi - epsilon = 1", "99 - 0"),
            ("phi-step", (Q2, Q1), 1, "98", "99"),
            ("pairing", (Q2,), 2, "phi - epsilon = 0", "99 - 0"),
            ("lower-domain", (Q2,), 2, "image iff phi > 0 (phi = 99)", "False"),
        ]
    )


def test_raise_domain_witnesses():
    # e_2 never has an image: the pattern with a 2-string above it names the
    # missing image, and lowering into it is no longer inverted.
    broken = replace(pattern_model(3), raise_=lambda p, i: None if i == 2 else raise_gtp(p, i))
    report = verify_axioms(evaluate(broken, list(enumerate_patterns(3, (1,)))))
    assert json.dumps(report.to_dict()) == rendered_report(
        [
            ("raise-domain", (Q0,), 2, "image iff epsilon > 0 (epsilon = 1)", "False"),
            ("inverse", (Q1, Q0), 2, "raising inverts lowering", "None"),
        ]
    )


def test_weight_step_witnesses():
    # The weight of Q1 shifted by the all-ones vector keeps every coroot
    # pairing, so only the weight steps into and out of Q1 see it.
    patterns = list(enumerate_patterns(3, (1,)))
    q1 = patterns[1]
    broken = replace(pattern_model(3), weight=lambda p: tuple(x + (p == q1) for x in weight_gtp(p)))
    report = verify_axioms(evaluate(broken, patterns))
    assert json.dumps(report.to_dict()) == rendered_report(
        [
            ("weight-step", (Q1, Q0), 2, "(1, 1, 2)", "(0, 0, 1)"),
            ("weight-step", (Q2, Q1), 1, "(0, 1, 0)", "(1, 2, 1)"),
        ]
    )


def test_epsilon_step_witnesses():
    # epsilon of Q1 is one too large at both labels.
    patterns = list(enumerate_patterns(3, (1,)))
    q1 = patterns[1]
    broken = replace(pattern_model(3), epsilon=lambda p, i: epsilon_gtp(p, i) + (p == q1))
    report = verify_axioms(evaluate(broken, patterns))
    assert json.dumps(report.to_dict()) == rendered_report(
        [
            ("pairing", (Q1,), 1, "phi - epsilon = -1", "0 - 2"),
            ("pairing", (Q1,), 2, "phi - epsilon = 1", "1 - 1"),
            ("epsilon-step", (Q1, Q0), 2, "2", "1"),
            ("raise-domain", (Q1,), 2, "image iff epsilon > 0 (epsilon = 1)", "False"),
            ("epsilon-step", (Q2, Q1), 1, "1", "2"),
        ]
    )


def test_injective_and_surjective_witnesses(shape2):
    pm, patterns, tm, tableaux = shape2
    image = pattern_to_tableau(patterns[0])
    report = verify_isomorphism(evaluate(pm, patterns), lambda p: image, evaluate(tm, tableaux))
    assert json.dumps(report.to_dict()) == rendered_report(
        [
            ("raise-intertwine", (P0, T22), 1, T22, T12),
            ("injective", (P1, T22), None, "distinct images", "duplicate image"),
            ("weight", (P1, T22), None, "(1, 1)", "(0, 2)"),
            ("phi", (P1, T22), 1, "1", "0"),
            ("epsilon", (P1, T22), 1, "1", "2"),
            ("lower-intertwine", (P1, T22), 1, T22, "None"),
            ("raise-intertwine", (P1, T22), 1, T22, T12),
            ("injective", (P2, T22), None, "distinct images", "duplicate image"),
            ("weight", (P2, T22), None, "(2, 0)", "(0, 2)"),
            ("phi", (P2, T22), 1, "2", "0"),
            ("epsilon", (P2, T22), 1, "0", "2"),
            ("lower-intertwine", (P2, T22), 1, T22, "None"),
            ("raise-intertwine", (P2, T22), 1, "None", T12),
            ("surjective", (T11,), None, "covered by the mapping", "not hit"),
            ("surjective", (T12,), None, "covered by the mapping", "not hit"),
        ]
    )


def test_into_target_witness(shape2):
    pm, patterns, tm, tableaux = shape2
    report = verify_isomorphism(evaluate(pm, patterns), pattern_to_tableau, evaluate(tm, tableaux[:2]))
    assert json.dumps(report.to_dict()) == rendered_report(
        [("into-target", (T22,), None, "image inside the target set", "outside")]
    )


# Witnesses of the checks that verify_shape makes itself, on the n = 2,
# shape (2) crystal: each names the elements and values it found.
def shape2_check(name):
    return json.dumps(crystal.verify_shape(2, (2,))["checks"][name])


def test_dimension_witness(monkeypatch):
    monkeypatch.setattr(crystal, "weyl_dimension", lambda n, lam: 4)
    assert shape2_check("dimension") == rendered_report([("dimension", (), None, "4", "3")])


def test_round_trip_witnesses(monkeypatch, shape2):
    # T11, the image of P2, maps back to P0: P2 comes back as P0, and T11 as
    # T22, the image of P0.
    _pm, patterns, _tm, tableaux = shape2
    monkeypatch.setattr(
        bijection, "tableau_to_pattern", lambda t: patterns[0] if t == tableaux[0] else tableau_to_pattern(t)
    )
    assert shape2_check("round-trip") == rendered_report(
        [("round-trip", (P2, T11), None, P2, P0), ("round-trip", (T11, P0), None, T11, T22)]
    )


@pytest.mark.parametrize(
    "name, mutant, limit, witness",
    [
        ("lower_gtp", lambda p, i: None, 100, ((P2,), "3 component(s) with 1 source(s)")),
        ("epsilon_gtp", lambda p, i: 0, 100, ((P0, P1, P2), "1 component(s) with 3 source(s)")),
        # Only WITNESS_LIMIT sources are named; the count names them all.
        ("epsilon_gtp", lambda p, i: 0, 2, ((P0, P1), "1 component(s) with 3 source(s)")),
    ],
    ids=["no lowering", "every element a source", "sources past the witness limit"],
)
def test_connected_unique_source_witness(monkeypatch, name, mutant, limit, witness):
    monkeypatch.setattr(gtpattern, name, mutant)
    monkeypatch.setattr(crystal, "WITNESS_LIMIT", limit)
    keys, actual = witness
    assert shape2_check("connected-unique-source") == rendered_report(
        [("connected-unique-source", keys, None, "1 component with 1 source", actual)]
    )
