import pytest

from toy_panel import build_toy_panel


@pytest.fixture(scope="session")
def toy_panel():
    return build_toy_panel()


@pytest.fixture(scope="session")
def scenario1_panel():
    from dropintmle.sim import scenario_presets, simulate_trial

    return simulate_trial(scenario_presets()["scenario1"], 4000, 314)
