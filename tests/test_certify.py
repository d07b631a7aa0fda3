import pytest

from germlab.certify import (
    ANALYSIS_RULES,
    CLOSURE_RULES,
    ContradictionError,
    FACTS,
    NEGATION,
    RegularityReport,
)


def report(name="g"):
    return RegularityReport(germ_name=name)


def test_frame_fact_closes_to_the_full_chain():
    rep = report()
    rep.add_fact("hwc", "hwc-exact")
    added = rep.derive()
    assert rep.facts == {
        "hwc", "disc_zero", "thom_regular", "condition_b",
        "tube_fibration_hypotheses_met",
    }
    # derive reports exactly the new facts, in dependency order.
    assert set(added) == rep.facts - {"hwc"}
    assert added.index("thom_regular") < added.index("condition_b")


def test_isolated_singularity_closes_to_thom():
    rep = report()
    rep.add_fact("isolated_singularity", "full-rank")
    rep.derive()
    assert "thom_regular" in rep.facts
    assert rep.provenance["thom_regular"]["rule"] == "isolated-thom"
    # No discriminant fact comes for free, so the tube hypotheses stay out.
    assert "tube_fibration_hypotheses_met" not in rep.facts


def test_negative_fact_closes_to_contrapositive():
    rep = report()
    rep.add_fact("not_condition_b", "empty-interior")
    rep.derive()
    assert rep.facts == {"not_condition_b", "not_thom_regular"}
    assert rep.provenance["not_thom_regular"]["rule"] == "condb-contra"


def test_contradiction_prints_both_chains():
    rep = report()
    rep.add_fact("hwc", "hwc-exact")
    rep.derive()
    with pytest.raises(ContradictionError) as exc:
        rep.add_fact("not_condition_b", "empty-interior")
    msg = str(exc.value)
    assert "chain for not_condition_b" in msg
    assert "chain for condition_b" in msg
    assert "thom-condb" in msg


def test_derived_contradiction_also_aborts():
    rep = report()
    rep.add_fact("not_thom_regular", "limit-witness")
    rep.add_fact("isolated_singularity", "full-rank")
    with pytest.raises(ContradictionError):
        rep.derive()


def test_declared_facts_are_flagged():
    rep = report()
    rep.declare("condition_b", "stated without proof")
    assert "condition_b" in rep.facts
    assert rep.declared == {"condition_b"}
    assert rep.provenance["condition_b"]["rule"] == "declared"
    assert rep.assumptions == ["condition_b: stated without proof"]


def test_first_provenance_entry_wins():
    rep = report()
    rep.add_fact("thom_regular", "limit-witness")
    rep.add_fact("thom_regular", "isolated-thom")
    assert rep.provenance["thom_regular"]["rule"] == "limit-witness"


def test_unknown_fact_is_a_programming_error():
    with pytest.raises(ValueError, match="unknown fact 'shiny'"):
        report().add_fact("shiny", "hwc-exact")
    with pytest.raises(ValueError, match="unknown rule id 'hwc-guess'"):
        report().add_fact("hwc", "hwc-guess")


def test_chain_is_leaf_first():
    rep = report()
    rep.add_fact("hwc", "hwc-exact")
    rep.derive()
    chain = rep.chain("tube_fibration_hypotheses_met")
    assert chain[0] == "hwc by hwc-exact"
    assert chain[-1].startswith("tube_fibration_hypotheses_met by tube-hypotheses")
    assert chain.index("hwc by hwc-exact") < chain.index(
        "thom_regular by hwc-thom from hwc")


def test_replay_soundness_checks_inputs_and_cycles():
    rep = report()
    rep.add_fact("hwc", "hwc-exact")
    rep.derive()
    assert rep.replay_sound()
    # An input that is not an established fact breaks the replay.
    rep.provenance["condition_b"]["inputs"] = ["isolated_singularity"]
    assert not rep.replay_sound()
    # So does a provenance cycle.
    rep2 = report()
    rep2.add_fact("thom_regular", "isolated-thom", ("condition_b",))
    rep2.add_fact("condition_b", "thom-condb", ("thom_regular",))
    assert not rep2.replay_sound()
    # And a fact that is its own input.
    rep3 = report()
    rep3.add_fact("thom_regular", "isolated-thom", ("thom_regular",))
    assert not rep3.replay_sound()


def test_rule_tables_are_closed_over_known_facts():
    for rule, premises, conclusions in CLOSURE_RULES:
        assert premises <= FACTS
        assert set(conclusions) <= FACTS
    for fact, neg in NEGATION.items():
        assert NEGATION[neg] == fact
    assert "declared" in ANALYSIS_RULES


def test_json_dict_is_sorted_and_complete():
    rep = report("e21")
    rep.add_fact("hwc", "hwc-exact")
    rep.derive()
    rep.note("checked")
    d = rep.to_json_dict()
    assert d["germ"] == "e21"
    assert d["facts"] == sorted(d["facts"])
    assert set(d) == {"germ", "facts", "provenance", "declared",
                      "assumptions", "residuals", "notes"}
    assert d["provenance"]["hwc"] == {"rule": "hwc-exact", "inputs": []}
