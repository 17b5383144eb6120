import pytest

from flipspectra import build_associahedron, lambda_2, lambda_min


@pytest.fixture(scope="session", autouse=True)
def default_cap():
    """Every test starts from the default polygon-size cap, whatever the shell sets."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("FLIPSPECTRA_MAX_N", raising=False)
        yield


@pytest.fixture(scope="session")
def assoc():
    """Cached flip-graph builder shared by the whole session."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = build_associahedron(n)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def lambda_min_values(assoc):
    """Computed lambda_min for n = 4..12: dense through n = 8, sectors at 9 and 10, then ARPACK."""
    return {n: lambda_min(assoc(n), seed=0).value for n in range(4, 13)}


@pytest.fixture(scope="session")
def lambda_2_values(assoc):
    return {n: lambda_2(assoc(n), seed=0).value for n in range(5, 13)}
