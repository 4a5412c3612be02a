"""The rewrite-rule base of the STOREL optimizer (Fig. 3 of the paper).

The paper uses 44 SDQLite rewrite rules, grouped into associativity /
commutativity, algebraic simplification, distributivity (factorization), loop
fusion, dictionary rules, and the two physical-annotation rules of Sec. 5.6.
This module defines the same groups:

* purely syntactic rules are expressed as pattern ⇒ pattern rewrites,
* binder-crossing rules (D2–D4, F1–F4, let handling) are *dynamic* rules whose
  right-hand side is computed by the corresponding term transformation in
  :mod:`repro.core.strategies` (see DESIGN.md for why).

Rule sets:

* :func:`logical_rules` — the storage-independent rules used by stage 1 of the
  optimization pipeline (Sec. 6.4),
* :func:`physical_rules` — fusion and physical-annotation rules added in
  stage 2, once the storage mappings have been composed in,
* :func:`all_rules` — everything.
"""

from __future__ import annotations

from functools import lru_cache

from ..egraph.rewrite import Rewrite, bidirectional, var_independent_of
from . import strategies


def _dynamic(name: str, pattern: str, transform, *conditions) -> Rewrite:
    """A dynamic rule that applies ``transform`` to the matched node's term."""

    def applier(egraph, term):
        return transform(term)

    return Rewrite.make_dynamic(name, pattern, applier, *conditions)


def _dynamic_with_ranks(name: str, pattern: str, transform, *conditions) -> Rewrite:
    """A dynamic rule whose transform takes ``(term, env, symbol_ranks)``.

    The matched fragment's enclosing binders are unknown (``env=None``), so
    the transform falls back to its closed-factor discipline; symbol ranks
    come from the e-graph, set by the optimizer.
    """

    def applier(egraph, term):
        return transform(term, None, egraph.symbol_ranks)

    return Rewrite.make_dynamic(name, pattern, applier, *conditions)


# ---------------------------------------------------------------------------
# Type-sensitive side conditions
# ---------------------------------------------------------------------------

#: Binder-environment entries carried down the class analysis are capped so
#: the ``seen`` memo keys stay small; indices past the cap read as unknown.
_ENV_CAP = 12

#: Class-visit budget per condition check.  Binder cycles in the e-graph
#: change the environment at every descent, so the ``seen`` guard alone
#: cannot terminate them (the same trap extraction has, see core/cost.py);
#: when the budget runs out the analysis falls back to "not proven a
#: collection" — the optimistic default the rules always used for leaves.
_ANALYSIS_FUEL = 2000

#: Hard bound on the analysis recursion *depth* (fuel alone bounds visits,
#: not the stack): a long non-repeating chain through binder nodes may
#: otherwise overflow Python's recursion limit on adversarial e-graphs.
_ANALYSIS_DEPTH = 48


def _class_produces_collection(egraph, identifier: int, depth: int = 0,
                               env: tuple[bool, ...] = (),
                               seen: set | None = None,
                               fuel: list | None = None,
                               level: int = 0) -> bool:
    """Conservatively decide whether an e-class is dictionary-valued.

    The e-graph analogue of :func:`repro.core.strategies.is_collection_producer`
    (same ``depth`` convention — "is the value, after ``depth`` more lookups,
    still a dictionary?" — and the same binder environment: descending into a
    ``sum`` body records whether the bound value ``%0`` is definitely a
    dictionary, derived from the source class).  True when any member of the
    class *definitely* constructs a collection: a dictionary / range / slice
    node, a symbol whose rank (from ``egraph.symbol_ranks``, set by the
    optimizer from the catalog statistics) exceeds ``depth``, a
    dictionary-valued bound variable, a lookup into such a class one level
    deeper, or an operator whose value position recurses into one.
    Out-of-scope variables and unregistered symbols are assumed scalar —
    the same optimism the term-level strategies use for leaves.
    """
    if seen is None:
        seen = set()
    if fuel is None:
        fuel = [_ANALYSIS_FUEL, False]
    if fuel[0] <= 0 or level >= _ANALYSIS_DEPTH:
        # Out of budget: record that the answer is a truncation, not a proof
        # (the scalar_factor condition then fails safe and blocks the move).
        fuel[1] = True
        return False
    fuel[0] -= 1
    identifier = egraph.find(identifier)
    key = (identifier, depth, env)
    if key in seen:
        return False
    seen.add(key)
    for enode in egraph[identifier].nodes:
        head = enode.head
        if head == "dict":
            if depth == 0 or _class_produces_collection(egraph, enode.children[1], depth - 1, env, seen, fuel, level + 1):
                return True
        elif head == "range":
            if depth == 0:
                return True
        elif head == "slice":
            if depth == 0 or _class_produces_collection(egraph, enode.children[0], depth, env, seen, fuel, level + 1):
                return True
        elif head == "sym":
            if egraph.symbol_ranks.get(enode.label[1], 0) > depth:
                return True
        elif head == "idx":
            index = enode.label[1]
            if depth == 0 and index < len(env) and env[index]:
                return True
        elif head == "get":
            if _class_produces_collection(egraph, enode.children[0], depth + 1, env, seen, fuel, level + 1):
                return True
        elif head == "sum":
            value_is_dict = _class_produces_collection(egraph, enode.children[0], 1, env, seen, fuel, level + 1)
            body_env = ((value_is_dict, False) + env)[:_ENV_CAP]
            if _class_produces_collection(egraph, enode.children[1], depth, body_env, seen, fuel, level + 1):
                return True
        elif head == "let":
            value_is_dict = _class_produces_collection(egraph, enode.children[0], 0, env, seen, fuel, level + 1)
            body_env = ((value_is_dict,) + env)[:_ENV_CAP]
            if _class_produces_collection(egraph, enode.children[1], depth, body_env, seen, fuel, level + 1):
                return True
        elif head == "if":
            if _class_produces_collection(egraph, enode.children[1], depth, env, seen, fuel, level + 1):
                return True
        elif head == "merge":
            body_env = ((False, False, False) + env)[:_ENV_CAP]
            if _class_produces_collection(egraph, enode.children[2], depth, body_env, seen, fuel, level + 1):
                return True
        elif head in ("add", "sub", "mul", "neg"):
            if any(_class_produces_collection(egraph, child, depth, env, seen, fuel, level + 1)
                   for child in enode.children):
                return True
    return False


def scalar_factor(variable: str):
    """Condition: the class bound to ``variable`` is not collection-valued.

    The dict-factor rules A2/A3 move a factor across a ``{ key -> ... }``
    constructor; that is multiplication by a *scalar* on one side and a
    key-intersecting dictionary product on the other, so the rules are only
    sound for scalar factors (``{0 -> c} * {3 -> 1}`` is ``{}``, not
    ``{0 -> {3 -> c}}`` — found by the differential fuzzer).
    """

    def check(egraph, subst) -> bool:
        # A factor with free variables references enclosing binders the
        # e-graph knows nothing about (one class can sit under many
        # different binders), so its rank is unknowable per-context — only
        # closed factors can be moved soundly (found by the differential
        # fuzzer: a dict-valued `sum(<k, v> in T) v` factor read as scalar).
        if egraph.free_vars(subst[variable]):
            return False
        fuel = [_ANALYSIS_FUEL, False]
        if _class_produces_collection(egraph, subst[variable], fuel=fuel):
            return False
        # A truncated analysis proves nothing — fail safe and keep the
        # factor in place rather than risk an unsound move.
        return not fuel[1]

    return check


def _class_is_integral(egraph, identifier: int, seen: set) -> bool:
    """Conservatively decide whether an e-class is an integer scalar.

    The e-graph analogue of :func:`repro.core.strategies.is_integral`, but
    without binder context: a bound variable proves nothing here.  True when
    a member is an integer literal, an integer scalar symbol, a lookup into
    a range or an integer array, or ``+ - *`` / negation of integer classes.
    """
    identifier = egraph.find(identifier)
    if identifier in seen:
        return False
    seen.add(identifier)
    ranks = egraph.symbol_ranks
    integral = strategies.integral_symbols(ranks)
    for enode in egraph[identifier].nodes:
        head = enode.head
        if head == "const":
            value = enode.label[1]
            if type(value) is int or (type(value) is float and value.is_integer()):
                return True
        elif head == "sym":
            if enode.label[1] in integral and not ranks.get(enode.label[1], 0):
                return True
        elif head == "get":
            if _class_is_integer_valued(egraph, enode.children[0]):
                return True
        elif head in ("add", "sub", "mul", "neg"):
            if all(_class_is_integral(egraph, child, seen) for child in enode.children):
                return True
    return False


def _class_is_integer_valued(egraph, identifier: int) -> bool:
    """A member of the class is a range or an integer array (or a slice of one)."""
    ranks = egraph.symbol_ranks
    integral = strategies.integral_symbols(ranks)
    for enode in egraph[egraph.find(identifier)].nodes:
        if enode.head == "range":
            return True
        if enode.head == "slice":
            return _class_is_integer_valued(egraph, enode.children[0])
        if (enode.head == "sym" and enode.label[1] in integral
                and ranks.get(enode.label[1], 0) == 1):
            return True
    return False


def integral_classes(*variables: str):
    """Condition: every listed pattern variable is bound to an integer class.

    T4 turns ``(lo:hi)(k)`` into a bounds check, which is only sound for
    integer ``k``, ``lo`` and ``hi``: ``lo:hi`` has no key ``2.5``.
    """

    def check(egraph, subst) -> bool:
        return all(_class_is_integral(egraph, subst[variable], set())
                   for variable in variables)

    return check


# ---------------------------------------------------------------------------
# Rule groups
# ---------------------------------------------------------------------------


def associativity_commutativity_rules() -> list[Rewrite]:
    """Rules A1–A4, C1, C2 (plus multiplication commutativity)."""
    rules: list[Rewrite] = []
    rules += bidirectional("A1-mul-assoc", "?a * (?b * ?c)", "(?a * ?b) * ?c")
    rules.append(Rewrite.syntactic("mul-comm", "?a * ?b", "?b * ?a"))
    rules += bidirectional("A2-dict-factor-right", "{ ?k -> ?a * ?b }", "{ ?k -> ?a } * ?b",
                           scalar_factor("?b"))
    rules += bidirectional("A3-dict-factor-left", "{ ?k -> ?a * ?b }", "?a * { ?k -> ?b }",
                           scalar_factor("?a"))
    rules += bidirectional("A4-if-factor", "if (?c) then (?a * ?b)", "?a * (if (?c) then ?b)")
    rules.append(Rewrite.syntactic("C1-add-comm", "?a + ?b", "?b + ?a"))
    rules.append(Rewrite.syntactic("C2-eq-comm", "?a == ?b", "?b == ?a"))
    rules.append(Rewrite.syntactic("add-assoc", "?a + (?b + ?c)", "(?a + ?b) + ?c"))
    return rules


def simplification_rules() -> list[Rewrite]:
    """Rules L1–L6 plus conditional simplifications (unidirectional)."""
    return [
        Rewrite.syntactic("L1-add-zero", "?e + 0", "?e"),
        Rewrite.syntactic("L1b-zero-add", "0 + ?e", "?e"),
        Rewrite.syntactic("L2-mul-zero", "?e * 0", "0"),
        Rewrite.syntactic("L2b-zero-mul", "0 * ?e", "0"),
        Rewrite.syntactic("L3-mul-one", "?e * 1", "?e"),
        Rewrite.syntactic("L3b-one-mul", "1 * ?e", "?e"),
        Rewrite.syntactic("L4-neg-zero", "-(0)", "0"),
        Rewrite.syntactic("L5-sub-zero", "?e - 0", "?e"),
        Rewrite.syntactic("L6-sub-self", "?e - ?e", "0"),
        Rewrite.syntactic("if-true", "if (true) then ?e", "?e"),
        Rewrite.syntactic("if-false", "if (false) then ?e", "0"),
        Rewrite.syntactic("eq-refl", "if (?a == ?a) then ?e", "?e"),
    ]


def distributivity_rules() -> list[Rewrite]:
    """Rules D1–D4: factorization of products over sums and dictionaries."""
    rules: list[Rewrite] = []
    rules += bidirectional("D1-distribute", "?a * ?b + ?a * ?c", "?a * (?b + ?c)")
    rules.append(_dynamic(
        "D2-hoist-factor", "sum(<k, v> in ?e1) ?a * ?b", strategies.hoist_factor))
    rules.append(_dynamic(
        "D3-hoist-factor-sym", "sum(<k, v> in ?e1) ?b * ?a", strategies.hoist_factor))
    rules.append(_dynamic(
        "D4-hoist-dict", "sum(<k, v> in ?e1) { ?j -> ?e }", strategies.hoist_dict,
        var_independent_of("?j", 0, 1)))
    rules.append(_dynamic(
        "D5-hoist-if", "sum(<k, v> in ?e1) if (?c) then ?e", strategies.hoist_if,
        var_independent_of("?c", 0, 1)))
    rules.append(_dynamic_with_ranks(
        "A2-lift-scalar-sum", "{ ?k -> ?a * ?b }", strategies.factor_out_of_dict))
    return rules


def fusion_rules() -> list[Rewrite]:
    """Rules F1–F4: loop fusion, iteration-to-lookup, and merge introduction."""
    return [
        _dynamic("F1-sum-to-lookup", "sum(<k, v> in ?e1) if (?a == ?b) then ?e",
                 strategies.sum_to_lookup),
        _dynamic("F2F3-fuse-sum-of-sum", "sum(<k1, v1> in (sum(<k2, v2> in ?e1) ?d)) ?e",
                 strategies.fuse_sum_of_sum),
        _dynamic("F4-merge-intro", "sum(<k1, v1> in ?e1) sum(<k2, v2> in ?e2) ?e",
                 strategies.introduce_merge, var_independent_of("?e2", 0, 1)),
        _dynamic("let-hoist-from-source", "sum(<k, v> in ?s) ?e",
                 strategies.hoist_let_from_source),
        _dynamic("let-inline", "let x = ?v in ?b", strategies.inline_let),
    ]


def dictionary_rules() -> list[Rewrite]:
    """Rules T1–T5: interaction of sums, lookups, ranges and dictionaries."""
    rules: list[Rewrite] = [
        Rewrite.syntactic("T1-sum-identity", "sum(<k, v> in ?e) { %1 -> %0 }", "?e"),
        Rewrite.syntactic("T2-lookup-add", "?a(?k) + ?b(?k)", "(?a + ?b)(?k)"),
        Rewrite.syntactic("T2-rev", "(?a + ?b)(?k)", "?a(?k) + ?b(?k)"),
        Rewrite.syntactic("T3-dict-add", "{ ?k -> ?a } + { ?k -> ?b }", "{ ?k -> ?a + ?b }"),
        Rewrite.syntactic("T3-rev", "{ ?k -> ?a + ?b }", "{ ?k -> ?a } + { ?k -> ?b }"),
        Rewrite.syntactic("T4-range-lookup", "(?lo:?hi)(?k)",
                          "if (?lo <= ?k && ?k < ?hi) then ?k",
                          integral_classes("?lo", "?hi", "?k")),
        Rewrite.syntactic("T5-dict-lookup", "{ ?k -> ?v }(?k)", "?v"),
        Rewrite.syntactic("if-nest", "if (?a) then if (?b) then ?e",
                          "if (?a && ?b) then ?e"),
    ]
    return rules


def physical_annotation_rules() -> list[Rewrite]:
    """The two rules of Sec. 5.6 choosing a physical representation for dictionaries."""
    return [
        Rewrite.syntactic("phys-dense", "{ ?k -> ?v }", "{ @dense ?k -> ?v }"),
        Rewrite.syntactic("phys-hash", "{ ?k -> ?v }", "{ @hash ?k -> ?v }"),
    ]


# ---------------------------------------------------------------------------
# Rule sets used by the two optimization stages
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rule_tables() -> tuple[tuple[Rewrite, ...], tuple[Rewrite, ...]]:
    """``(logical, physical)`` — parsed and compiled once per process.

    A :class:`Rewrite` holds no per-run state (the runner keeps its
    scheduler and application memo), so every saturation shares these.
    """
    logical = (associativity_commutativity_rules()
               + simplification_rules()
               + distributivity_rules()
               + dictionary_rules())
    physical = fusion_rules() + physical_annotation_rules()
    return tuple(logical), tuple(physical)


def logical_rules() -> list[Rewrite]:
    """Storage-independent rules (stage 1 of the pipeline, Sec. 6.4).

    A fresh list over the process-wide rule objects: callers may reorder or
    filter it, but must not mutate the rules.
    """
    return list(_rule_tables()[0])


def physical_rules() -> list[Rewrite]:
    """Rules that interact with the storage mappings (stage 2)."""
    return list(_rule_tables()[1])


def all_rules() -> list[Rewrite]:
    """The full rule base (the paper's 44 rules)."""
    logical, physical = _rule_tables()
    return list(logical + physical)


def rule_names() -> list[str]:
    """Names of every rule in the rule base (used by tests and docs)."""
    return [rule.name for rule in all_rules()]


def rule_groups() -> dict[str, list[str]]:
    """Rule names per Fig. 3 group (used by docs and per-rule bench reports).

    Expansive groups (associativity/commutativity) are not given hard
    per-rule ``match_limit`` budgets here: the runner's backoff scheduler
    throttles them adaptively, which keeps the selective fusion rules
    searching every iteration without hand-tuned caps.
    """
    return {
        "associativity/commutativity": [r.name for r in associativity_commutativity_rules()],
        "simplification": [r.name for r in simplification_rules()],
        "distributivity": [r.name for r in distributivity_rules()],
        "fusion": [r.name for r in fusion_rules()],
        "dictionary": [r.name for r in dictionary_rules()],
        "physical-annotation": [r.name for r in physical_annotation_rules()],
    }
