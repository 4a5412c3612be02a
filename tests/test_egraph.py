"""Tests for the equality-saturation engine (union-find, e-graph, matching, extraction)."""

import pytest

from repro.egraph import (
    EGraph,
    ENode,
    Extractor,
    Pattern,
    Rewrite,
    Runner,
    UnionFind,
    ast_size_cost,
    bidirectional,
    extract_smallest,
    parse_pattern,
    var_independent_of,
)
from repro.sdqlite import parse_expr, to_debruijn
from repro.sdqlite.ast import Add, Const, Idx, Mul, Sym, Var


def db(source: str):
    return to_debruijn(parse_expr(source))


# ---------------------------------------------------------------------------
# union-find
# ---------------------------------------------------------------------------


def test_unionfind_bashorizontal():
    uf = UnionFind()
    ids = [uf.make_set() for _ in range(5)]
    assert len(uf) == 5
    assert all(uf.find(i) == i for i in ids)
    uf.union(0, 1)
    uf.union(3, 4)
    assert uf.connected(0, 1)
    assert not uf.connected(1, 2)
    uf.union(1, 3)
    assert uf.connected(0, 4)
    # representative is stable under repeated finds
    assert uf.find(0) == uf.find(4)


# ---------------------------------------------------------------------------
# e-graph core
# ---------------------------------------------------------------------------


def test_add_expr_hashconses_identical_subterms():
    egraph = EGraph()
    expr = db("(a + b) * (a + b)")
    root = egraph.add_expr(expr)
    # a, b, a+b, (a+b)*(a+b): 4 classes only
    assert egraph.num_classes == 4
    assert egraph.find(root) == root
    # adding the same expression again creates nothing new
    again = egraph.add_expr(expr)
    assert egraph.find(again) == egraph.find(root)
    assert egraph.num_classes == 4
    egraph.sanity_check()


def test_union_and_congruence_closure():
    egraph = EGraph()
    a = egraph.add_expr(Sym("a"))
    b = egraph.add_expr(Sym("b"))
    fa = egraph.add_expr(Mul(Sym("a"), Const(2)))
    fb = egraph.add_expr(Mul(Sym("b"), Const(2)))
    assert not egraph.equivalent(fa, fb)
    egraph.union(a, b)
    egraph.rebuild()
    # congruence: a == b implies a*2 == b*2
    assert egraph.equivalent(fa, fb)
    egraph.sanity_check()


def test_best_term_tracks_smallest_representative():
    egraph = EGraph()
    big = db("a * 1 + 0")
    small = db("a")
    root = egraph.add_expr(big)
    other = egraph.add_expr(small)
    egraph.union(root, other)
    egraph.rebuild()
    assert egraph.best_term(root) == Sym("a")


def test_free_vars_analysis():
    egraph = EGraph()
    # sum(<k,v> in A) %0 * %2  : %2 inside the body is free (refers outside)
    expr = to_debruijn(parse_expr("sum(<k, v> in A) v * 2"))
    inner = Mul(Idx(0), Idx(2))
    body_id = egraph.add_expr(inner)
    assert egraph.free_vars(body_id) == frozenset({0, 2})
    from repro.sdqlite.ast import Sum

    root = egraph.add_expr(Sum(Sym("A"), inner))
    assert egraph.free_vars(root) == frozenset({0})
    closed = egraph.add_expr(expr)
    assert egraph.free_vars(closed) == frozenset()


def test_free_vars_refined_by_union():
    egraph = EGraph()
    uses = egraph.add_expr(Mul(Idx(0), Const(0)))     # mentions %0 ...
    zero = egraph.add_expr(Const(0))                  # ... but is equal to 0
    assert egraph.free_vars(uses) == frozenset({0})
    egraph.union(uses, zero)
    egraph.rebuild()
    assert egraph.free_vars(uses) == frozenset()


# ---------------------------------------------------------------------------
# pattern matching
# ---------------------------------------------------------------------------


def test_pattern_parse_and_variables():
    pattern = Pattern("?a * (?b + ?c)")
    assert pattern.variables == ["?a", "?b", "?c"]
    pattern = Pattern("sum(<k, v> in ?e) %0")
    assert pattern.variables == ["?e"]


def test_pattern_matching_simple():
    egraph = EGraph()
    root = egraph.add_expr(db("x * (y + z)"))
    matches = Pattern("?a * (?b + ?c)").search(egraph)
    assert len(matches) == 1
    identifier, subst = matches[0]
    assert egraph.find(identifier) == egraph.find(root)
    assert egraph.best_term(subst["?a"]) == Sym("x")
    assert egraph.best_term(subst["?c"]) == Sym("z")


def test_pattern_repeated_variable_requires_same_class():
    egraph = EGraph()
    egraph.add_expr(db("x * x"))
    egraph.add_expr(db("x * y"))
    matches = Pattern("?a * ?a").search(egraph)
    assert len(matches) == 1


def test_variable_root_pattern_matches_every_class():
    egraph = EGraph()
    root = egraph.add_expr(db("x * (y + z)"))
    pattern = Pattern("?x")
    assert pattern.root_label is None
    every = sorted(eclass.identifier for eclass in egraph.classes())
    assert len(every) == 5
    assert pattern.search_class(egraph, root) == [{"?x": egraph.find(root)}]
    for matches in (pattern.search(egraph), list(pattern.search_iter(egraph))):
        assert sorted(identifier for identifier, _ in matches) == every
        assert all(subst == {"?x": identifier} for identifier, subst in matches)
    assert list(pattern.search_iter(egraph, [root])) == [(root, {"?x": root})]
    # As a rule's left-hand side: `?x -> ?x * 1` rewrites every class.
    rule = Rewrite.syntactic("times-one", "?x", "?x * 1")
    report = Runner(egraph, [rule], iter_limit=1).run()
    assert report.rule_stats["times-one"].matches == 5
    assert egraph.equivalent(root, egraph.add_expr(db("x * (y + z) * 1")))


def test_pattern_instantiation_adds_nodes():
    egraph = EGraph()
    egraph.add_expr(db("x + y"))
    (identifier, subst), = Pattern("?a + ?b").search(egraph)
    new_id = Pattern("?b + ?a").instantiate(egraph, subst)
    assert egraph.best_term(new_id) == Add(Sym("y"), Sym("x"))


def test_pattern_matches_binders_with_indices():
    egraph = EGraph()
    root = egraph.add_expr(db("sum(<i, v> in A) { i -> v }"))
    matches = Pattern("sum(<k, v> in ?e) { %1 -> %0 }").search(egraph)
    assert len(matches) == 1
    assert egraph.find(matches[0][0]) == egraph.find(root)


# ---------------------------------------------------------------------------
# rewriting + runner
# ---------------------------------------------------------------------------


def simple_rules():
    rules = []
    rules += bidirectional("mul-comm", "?a * ?b", "?b * ?a")
    rules += bidirectional("add-comm", "?a + ?b", "?b + ?a")
    rules.append(Rewrite.syntactic("mul-one", "?a * 1", "?a"))
    rules.append(Rewrite.syntactic("add-zero", "?a + 0", "?a"))
    rules += bidirectional("distribute", "?a * (?b + ?c)", "?a * ?b + ?a * ?c")
    return rules


def test_runner_saturates_and_proves_equalities():
    egraph = EGraph()
    left = egraph.add_expr(db("a * (b + c)"))
    right = egraph.add_expr(db("c * a + b * a"))
    report = Runner(egraph, simple_rules(), iter_limit=10).run()
    assert report.stop_reason in ("saturated", "iter_limit")
    assert egraph.equivalent(left, right)
    assert report.nodes > 0 and report.classes > 0 and report.memo > 0
    assert report.iterations >= 1
    assert len(report.per_iteration) == report.iterations


def test_runner_simplifies_with_extraction():
    egraph = EGraph()
    root = egraph.add_expr(db("(x * 1 + 0) * (1 * 1)"))
    Runner(egraph, simple_rules(), iter_limit=10).run()
    best = extract_smallest(egraph, root)
    assert best == Sym("x")


def test_conditional_rule_respects_free_vars():
    # Hoist ?e out of a sum only when it does not use the bound variables.
    def hoist(egraph, term):
        from repro.sdqlite.ast import Mul, Sum
        from repro.sdqlite.debruijn import shift

        # term is the representative of the match: Sum(?e, Mul(?f, ?r)).
        product = term.body
        return Mul(shift(product.left, -2), Sum(term.source, product.right))

    rule = Rewrite.make_dynamic(
        "hoist", "sum(<k, v> in ?e) ?f * ?r", hoist,
        var_independent_of("?f", 0, 1),
    )
    egraph = EGraph()
    # beta does not depend on the loop variables -> rule applies
    root = egraph.add_expr(db("sum(<i, v> in A) beta * v"))
    report = Runner(egraph, [rule], iter_limit=3).run()
    expected = egraph.contains_expr(db("beta * (sum(<i, v> in A) v)"))
    assert expected is not None and egraph.equivalent(root, expected)
    # v depends on the loop -> rule must not fire
    egraph2 = EGraph()
    root2 = egraph2.add_expr(db("sum(<i, v> in A) v * v"))
    Runner(egraph2, [rule], iter_limit=3).run()
    bad = egraph2.contains_expr(db("sum(<i, v> in A) v * v"))
    assert egraph2.num_classes == 4  # nothing new was added


def test_runner_node_limit_stops():
    # With a very small node budget the runner stops on the node limit
    # instead of saturating.
    egraph = EGraph()
    egraph.add_expr(db("a * (b + c) * (d + e)"))
    report = Runner(egraph, simple_rules(), iter_limit=50, node_limit=12).run()
    assert report.stop_reason == "node_limit"
    assert report.nodes >= 12


def test_runner_iteration_limit_stops():
    egraph = EGraph()
    egraph.add_expr(db("a * (b + c) * (d + e) * (f + g)"))
    report = Runner(egraph, simple_rules(), iter_limit=1, node_limit=10_000_000).run()
    assert report.stop_reason == "iter_limit"
    assert report.iterations == 1


def test_extractor_with_custom_cost():
    egraph = EGraph()
    root = egraph.add_expr(db("a * (b + c)"))
    Runner(egraph, simple_rules(), iter_limit=6).run()

    def prefer_factored(enode, child_costs):
        # Make '+' of two products expensive so the factored form wins.
        penalty = 10.0 if enode.head == "add" else 0.0
        return 1.0 + penalty + sum(child_costs)

    extractor = Extractor(egraph, prefer_factored)
    best = extractor.extract(root)
    assert isinstance(best, Mul)
    assert extractor.cost_of(root) < 20


def test_extract_raises_on_unknown_class():
    egraph = EGraph()
    egraph.add_expr(db("x"))
    with pytest.raises((KeyError, IndexError)):
        egraph[99]


# ---------------------------------------------------------------------------
# maintained counters, operator index, dirty tracking
# ---------------------------------------------------------------------------


def _recount(egraph):
    classes = list(egraph.classes())
    return sum(len(c.nodes) for c in classes), len(classes)


def test_counters_match_recount_through_unions_and_rebuilds():
    egraph = EGraph()
    a = egraph.add_expr(db("(a + b) * (a + b)"))
    b = egraph.add_expr(db("c * 1 + a * b"))
    assert (egraph.num_nodes, egraph.num_classes) == _recount(egraph)
    egraph.union(a, b)
    egraph.rebuild()
    assert (egraph.num_nodes, egraph.num_classes) == _recount(egraph)
    egraph.union(egraph.add_expr(db("a")), egraph.add_expr(db("b")))
    egraph.rebuild()  # congruence merges a+b nodes and dedups
    assert (egraph.num_nodes, egraph.num_classes) == _recount(egraph)
    egraph.sanity_check()


def test_operator_index_finds_label_classes():
    egraph = EGraph()
    egraph.add_expr(db("x * (y + z)"))
    mul_classes = egraph.classes_with_label(("mul",))
    add_classes = egraph.classes_with_label(("add",))
    assert len(mul_classes) == 1 and len(add_classes) == 1
    assert egraph.classes_with_label(("sub",)) == []
    # After a union the index entry resolves to the surviving class.
    a = egraph.add_expr(db("a * b"))
    other = egraph.add_expr(db("q"))
    egraph.union(a, other)
    egraph.rebuild()
    resolved = egraph.classes_with_label(("mul",))
    assert egraph.find(a) in resolved
    egraph.sanity_check()


def test_take_dirty_reports_new_and_unioned_classes():
    egraph = EGraph()
    root = egraph.add_expr(db("x + y"))
    dirty = egraph.take_dirty()
    assert egraph.find(root) in dirty
    assert egraph.take_dirty() == []  # drained
    a = egraph.add_expr(db("x"))
    egraph.take_dirty()
    b = egraph.add_expr(db("y"))
    egraph.union(a, b)
    dirty = egraph.take_dirty()
    assert egraph.find(a) in dirty


def test_ancestors_closure_reaches_match_roots():
    egraph = EGraph()
    root = egraph.add_expr(db("(x + y) * z"))
    inner = egraph.add_expr(db("x"))
    closure = egraph.ancestors_closure([inner])
    # x -> x + y -> (x + y) * z
    assert egraph.find(root) in closure
    assert len(closure) >= 3


# ---------------------------------------------------------------------------
# the scheduler and incremental search
# ---------------------------------------------------------------------------


def test_backoff_scheduler_bans_exploding_rule():
    from repro.egraph import BackoffScheduler

    rules = simple_rules()
    scheduler = BackoffScheduler(rules, match_limit=10, ban_length=2)
    assert scheduler.allow(0, 1)
    assert scheduler.record(0, 1, 11) is True          # exploded -> banned
    assert not scheduler.allow(0, 2)
    assert not scheduler.allow(0, 3)
    assert scheduler.allow(0, 4)                       # ban expired
    assert scheduler.record(0, 4, 15) is False         # threshold doubled to 20


def test_banned_iteration_does_not_report_saturated():
    # One explosive rule; with a tiny budget it gets banned immediately, and
    # the iteration it sits out must not count as saturation.
    egraph = EGraph()
    egraph.add_expr(db("a * (b + c) * (d + e)"))
    rules = simple_rules()
    report = Runner(egraph, rules, iter_limit=3, match_limit_per_rule=2,
                    ban_length=5).run()
    banned_iters = [it for it in report.per_iteration if it.banned]
    assert banned_iters, "expected at least one iteration with banned rules"
    for stats in banned_iters:
        assert report.stop_reason != "saturated" or stats.index != report.iterations


def test_backoff_rebans_persistently_explosive_rule():
    # After a ban the threshold doubles; the runner's collection cap must
    # follow it so a rule that keeps exploding keeps getting (longer) bans.
    from repro.egraph import Rewrite

    egraph = EGraph()
    egraph.add_expr(db("a * (b + c) * (d + e) * (f + g) * (h + i)"))
    rules = simple_rules()
    report = Runner(egraph, rules, iter_limit=30, node_limit=100_000,
                    match_limit_per_rule=2, ban_length=1).run()
    assert max(stats.bans for stats in report.rule_stats.values()) >= 2


def test_runner_rejects_unknown_scheduler_name():
    # There is one scheduler: the runner always backs off, and the option
    # that used to pick another one is gone.
    from repro.egraph import BackoffScheduler

    egraph = EGraph()
    egraph.add_expr(db("a * b"))
    assert isinstance(Runner(egraph, simple_rules()).scheduler, BackoffScheduler)
    with pytest.raises(TypeError):
        Runner(egraph, simple_rules(), scheduler="backoff")


def test_indexed_false_scans_without_probing_index(monkeypatch):
    # The runner finds its candidate classes through the operator index; the
    # switch that turned the index off is gone.
    egraph = EGraph()
    left = egraph.add_expr(db("a * (b + c)"))
    right = egraph.add_expr(db("c * a + b * a"))
    probes = []
    original = EGraph.classes_with_label

    def counting(self, label):
        probes.append(label)
        return original(self, label)

    monkeypatch.setattr(EGraph, "classes_with_label", counting)
    Runner(egraph, simple_rules(), iter_limit=10).run()
    assert probes
    assert egraph.equivalent(left, right)
    with pytest.raises(TypeError):
        Runner(egraph, simple_rules(), indexed=False)


def _reference_saturate(egraph, rules, iterations=10):
    """Textbook saturation over ``Pattern.search``: every rule matched against
    every class, every match applied, until nothing changes."""
    for _ in range(iterations):
        matches = [(rule, identifier, subst) for rule in rules
                   for identifier, subst in rule.search(egraph)]
        changed = False
        for rule, identifier, subst in matches:
            changed |= rule.apply_match(egraph, identifier, subst)
        egraph.rebuild()
        if not changed:
            return


def test_incremental_engine_matches_naive_equalities():
    # The runner (index probes, dirty-set re-matching, backoff) proves the
    # same equalities as a full rescan with ``Pattern.search`` when nothing
    # truncates.
    terms = ["a * (b + c)", "c * a + b * a", "(b + c) * a", "a * b + a * c",
             "a * b", "a * c", "b + c", "a * (c + b) * 1"]
    engine, reference = EGraph(), EGraph()
    engine_ids = [engine.add_expr(db(term)) for term in terms]
    reference_ids = [reference.add_expr(db(term)) for term in terms]
    report = Runner(engine, simple_rules(), iter_limit=10).run()
    _reference_saturate(reference, simple_rules())
    assert report.stop_reason == "saturated"
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            assert (engine.equivalent(engine_ids[i], engine_ids[j])
                    == reference.equivalent(reference_ids[i], reference_ids[j])), \
                (terms[i], terms[j])
    assert engine.equivalent(engine_ids[0], engine_ids[7])
    assert not engine.equivalent(engine_ids[4], engine_ids[5])
    engine.sanity_check()
    reference.sanity_check()


def test_runner_reports_rule_and_iteration_timings():
    egraph = EGraph()
    egraph.add_expr(db("a * (b + c)"))
    report = Runner(egraph, simple_rules(), iter_limit=4).run()
    assert set(report.rule_stats) == {rule.name for rule in simple_rules()}
    assert any(stats.matches > 0 for stats in report.rule_stats.values())
    total_rule_ms = sum(s.search_ms + s.apply_ms for s in report.rule_stats.values())
    assert total_rule_ms >= 0.0
    for iteration in report.per_iteration:
        assert iteration.search_ms >= 0.0 and iteration.apply_ms >= 0.0
        assert iteration.rebuild_ms >= 0.0


def test_match_limit_stops_collection_early():
    egraph = EGraph()
    egraph.add_expr(db("a * (b + c) * (d + e) * (f + g)"))
    report = Runner(egraph, simple_rules(), iter_limit=2,
                    match_limit_per_rule=3).run()
    # Collection stops at the budget (+1 sentinel for explosion detection),
    # so no iteration reports more matches than rules x (limit + 1).
    for iteration in report.per_iteration:
        assert iteration.matches <= len(simple_rules()) * 4


def test_per_rule_match_limit_overrides_global():
    from repro.egraph import Rewrite

    rule = Rewrite.syntactic("mul-comm-budget", "?a * ?b", "?b * ?a")
    rule.match_limit = 1
    egraph = EGraph()
    egraph.add_expr(db("a * b + c * d"))
    report = Runner(egraph, [rule], iter_limit=1, match_limit_per_rule=100).run()
    # Two mul classes match, but the per-rule budget of 1 caps application
    # (collection stops at budget + 1, the explosion sentinel).
    assert report.per_iteration[0].applied == 1
    assert report.per_iteration[0].matches <= 2


# ---------------------------------------------------------------------------
# pattern parsing regressions (token-initial ? and % markers only)
# ---------------------------------------------------------------------------


def test_parse_pattern_rejects_mid_token_markers():
    from repro.sdqlite.errors import OptimizationError, ParseError

    # Before the token-initial fix these were silently mangled into symbols
    # like "a__pvar_b"; now the un-encoded marker reaches the tokenizer.
    for source in ("a?b + 1", "?a + b_50%", "x % 2"):
        with pytest.raises(ParseError):
            parse_pattern(source)
    with pytest.raises(OptimizationError):
        parse_pattern("__pvar_x + 1")


def test_parse_pattern_accepts_adjacent_punctuation():
    expr = parse_pattern("(?lo:?hi)(?k)")
    pattern = Pattern(expr)
    assert pattern.variables == ["?hi", "?k", "?lo"]
    expr = parse_pattern("{ ?k -> ?v }(?k)")
    assert Pattern(expr).variables == ["?k", "?v"]


def test_search_iter_restricts_to_candidates():
    egraph = EGraph()
    first = egraph.add_expr(db("x * y"))
    second = egraph.add_expr(db("a * b"))
    pattern = Pattern("?a * ?b")
    all_matches = list(pattern.search_iter(egraph))
    assert {egraph.find(i) for i, _ in all_matches} == \
        {egraph.find(first), egraph.find(second)}
    only_first = list(pattern.search_iter(egraph, [first]))
    assert {egraph.find(i) for i, _ in only_first} == {egraph.find(first)}
