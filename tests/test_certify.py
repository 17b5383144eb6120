from flipspectra import certify


def test_structure_claim_states_each_scope():
    assert certify._claim_structure(10).detail == "regular, connected, triangle-free up to n=10"
    eleven = certify._claim_structure(11)
    assert eleven.passed
    assert eleven.detail == "regular, connected up to n=11; triangle-free up to n=10"

