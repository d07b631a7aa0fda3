"""Regularity facts and the closure rules that connect them.

A report is a set of established facts about one germ, each carrying a
provenance entry: the rule that produced it and the inputs the rule
consumed.  Base facts come from exact computations (or are declared by the
user, and say so); derived facts come from a fixed-point pass over a short
rule table.  Contradictions do not get resolved silently: deriving a fact
whose negation is present aborts with both provenance chains printed.

The rule table is deliberately small and one-directional.  Nothing here
re-checks the mathematics behind a rule; that lives in the analysis
modules, which only feed base facts they have verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

FACTS = frozenset({
    "hwc",
    "disc_zero",
    "thom_regular",
    "not_thom_regular",
    "condition_b",
    "not_condition_b",
    "isolated_singularity",
    "tube_fibration_hypotheses_met",
})

NEGATION = {
    "thom_regular": "not_thom_regular",
    "not_thom_regular": "thom_regular",
    "condition_b": "not_condition_b",
    "not_condition_b": "condition_b",
}

# (rule id, premises, conclusions).  Closure applies these to a fixed point.
CLOSURE_RULES: tuple[tuple[str, frozenset, tuple[str, ...]], ...] = (
    ("hwc-thom", frozenset({"hwc"}), ("disc_zero", "thom_regular")),
    ("isolated-thom", frozenset({"isolated_singularity"}), ("thom_regular",)),
    ("thom-condb", frozenset({"thom_regular"}), ("condition_b",)),
    ("condb-contra", frozenset({"not_condition_b"}), ("not_thom_regular",)),
    ("tube-hypotheses", frozenset({"condition_b", "disc_zero"}),
     ("tube_fibration_hypotheses_met",)),
)

# Rule ids used by analysis modules when they install base facts; kept in
# one table so reports stay greppable.
ANALYSIS_RULES = frozenset({
    "hwc-exact",
    "limit-witness",
    "empty-interior",
    "b-violation-family",
    "full-rank",
    "compose-closure",
    "compose-inclusion",
    "separable-thom",
    "declared",
})

RULE_IDS = ANALYSIS_RULES | {rule for rule, _, _ in CLOSURE_RULES}


class ContradictionError(Exception):
    def __init__(self, fact: str, negation: str, chain_a: list[str], chain_b: list[str]):
        self.fact = fact
        self.negation = negation
        lines = [f"contradiction: {fact} vs {negation}",
                 f"chain for {fact}:"]
        lines += [f"  {step}" for step in chain_a]
        lines.append(f"chain for {negation}:")
        lines += [f"  {step}" for step in chain_b]
        super().__init__("\n".join(lines))


@dataclass
class RegularityReport:
    """Facts established for one germ, with provenance per fact."""

    germ_name: str
    facts: set[str] = field(default_factory=set)
    provenance: dict[str, dict] = field(default_factory=dict)
    declared: set[str] = field(default_factory=set)
    assumptions: list[str] = field(default_factory=list)
    residuals: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    # -- fact installation ----------------------------------------------

    def add_fact(self, fact: str, rule: str, inputs: tuple[str, ...] = ()):
        if fact not in FACTS:
            raise ValueError(f"unknown fact {fact!r}")
        if rule not in RULE_IDS:
            raise ValueError(f"unknown rule id {rule!r}")
        neg = NEGATION.get(fact)
        if neg and neg in self.facts:
            raise ContradictionError(fact, neg,
                                     [f"{rule} <- {', '.join(inputs) or 'base'}"],
                                     self.chain(neg))
        if fact in self.facts:
            return
        self.facts.add(fact)
        self.provenance[fact] = {"rule": rule, "inputs": list(inputs)}

    def declare(self, fact: str, reason: str = "declared by the caller",
                rule: str = "declared"):
        """Install a fact on the user's authority; flagged, never verified.

        rule names the analysis rule that turns declared inputs into the
        fact, when there is one; it must be a known rule id.
        """
        self.add_fact(fact, rule, ())
        self.declared.add(fact)
        self.assumptions.append(f"{fact}: {reason}")

    def note(self, text: str):
        self.notes.append(text)

    # -- closure ----------------------------------------------------------

    def derive(self) -> list[str]:
        """Apply the closure rules to a fixed point; returns new facts."""
        added = []
        changed = True
        while changed:
            changed = False
            for rule, premises, conclusions in CLOSURE_RULES:
                if not premises <= self.facts:
                    continue
                for fact in conclusions:
                    if fact not in self.facts:
                        self.add_fact(fact, rule, tuple(sorted(premises)))
                        added.append(fact)
                        changed = True
        return added

    # -- provenance -------------------------------------------------------

    def chain(self, fact: str) -> list[str]:
        """Provenance steps for a fact, leaf rules first."""
        out: list[str] = []
        stack: set[str] = set()  # only the active path; diamonds are fine

        def walk(f: str):
            assert f not in stack, f"provenance cycle at {f}"
            if f not in self.provenance:
                return
            stack.add(f)
            entry = self.provenance[f]
            for inp in entry["inputs"]:
                walk(inp)
            stack.discard(f)
            step = f"{f} by {entry['rule']}"
            if entry["inputs"]:
                step += " from " + ", ".join(entry["inputs"])
            if step not in out:
                out.append(step)

        walk(fact)
        return out

    def replay_sound(self) -> bool:
        """The provenance replays: every input is an established fact, and
        each fact can be replayed once all of its inputs have been."""
        pending = {f: set(e["inputs"]) for f, e in self.provenance.items()}
        if not set().union(*pending.values()) <= self.facts:
            return False
        while pending:
            ready = [f for f, inputs in pending.items() if not inputs & pending.keys()]
            if not ready:
                return False  # the facts left wait on each other: a cycle
            for f in ready:
                del pending[f]
        return True

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "germ": self.germ_name,
            "facts": sorted(self.facts),
            "provenance": {
                f: {"rule": e["rule"], "inputs": list(e["inputs"])}
                for f, e in sorted(self.provenance.items())
            },
            "declared": sorted(self.declared),
            "assumptions": list(self.assumptions),
            "residuals": dict(sorted(self.residuals.items())),
            "notes": list(self.notes),
        }
