"""Smoke + shape tests for the experiment harness at tiny scale."""

import math

import pytest

from repro.apps import JacobiConfig, WaterConfig
from repro.harness import (
    EXPERIMENTS,
    QUICK,
    latency_microbenchmark,
    overhead_table_experiment,
    run_experiment,
    speedup_experiment,
    table1_parameters,
    unrestricted_cell_experiment,
)
from repro.params import SimParams


def test_registry_covers_every_table_and_figure():
    expected = {f"fig{i}" for i in range(2, 15)} | {
        f"table{i}" for i in range(1, 6)
    } | {"faults", "collectives", "messaging", "failures"}
    assert set(EXPERIMENTS) == expected


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_table1_values():
    t = table1_parameters()
    assert t.cell("cpu_frequency_mhz", "value") == 166.0
    assert t.cell("message_cache_kb", "value") == 32.0


def test_speedup_experiment_tiny():
    r = speedup_experiment(
        "jacobi", JacobiConfig(n=32, iterations=3), procs=(1, 2),
        name="tiny",
    )
    assert r.xs == [1.0, 2.0]
    assert r.get("cni_speedup")[0] == pytest.approx(1.0)
    assert len(r.get("network_cache_hit_ratio")) == 2


def test_overhead_experiment_tiny():
    t = overhead_table_experiment(
        "water", WaterConfig(n_molecules=8, steps=1), nprocs=2
    )
    assert set(t.rows) == {"synch_overhead", "synch_delay", "computation",
                           "total"}
    for iface_col in t.columns:
        assert t.cell("total", iface_col) > 0
    # total is the sum of the parts
    for col in t.columns:
        parts = sum(t.cell(r, col) for r in
                    ("synch_overhead", "synch_delay", "computation"))
        assert t.cell("total", col) == pytest.approx(parts)


def test_latency_experiment_tiny():
    r = latency_microbenchmark([0, 1024])
    assert r.get("cni_latency_us")[1] > r.get("cni_latency_us")[0]
    assert r.get("standard_latency_us")[1] > r.get("cni_latency_us")[1]


def test_unrestricted_cell_tiny():
    t = unrestricted_cell_experiment(
        {"jacobi": JacobiConfig(n=32, iterations=3)}, nprocs=2
    )
    assert t.cell("jacobi", "pct_improvement") > 0


def test_fault_sweep_tiny():
    from repro.harness import fault_sweep_experiment

    r = fault_sweep_experiment(
        "jacobi", JacobiConfig(n=32, iterations=2), loss_rates=(0.0, 0.02),
        nprocs=2, name="tiny-faults",
    )
    assert r.x_label == "cell_loss_rate"
    assert r.xs == [0.0, 0.02]
    for iface in ("cni", "standard"):
        clean, lossy = r.get(f"{iface}_retransmits")
        assert clean == 0 and lossy > 0
        assert all(g > 0 for g in r.get(f"{iface}_goodput_mbps"))
        assert r.get(f"{iface}_completion_ms")[1] > \
            r.get(f"{iface}_completion_ms")[0]


def test_fault_sweep_records_failed_points():
    from repro.harness import fault_sweep_experiment
    from repro.harness.report import format_series

    r = fault_sweep_experiment(
        "jacobi", JacobiConfig(n=32, iterations=2), loss_rates=(0.0, 0.3),
        nprocs=2, base_params=SimParams(reliab_max_attempts=1), jobs=1,
    )
    for iface in ("cni", "standard"):
        clean, failed = r.get(f"{iface}_completion_ms")
        assert clean > 0 and math.isnan(failed)
    assert r.notes == ("cni @ 0.3: delivery failed; "
                       "standard @ 0.3: delivery failed")
    assert "delivery failed" in format_series(r)


def test_runner_cli_fault_plan_option(capsys):
    from repro.harness.runner import main

    rc = main(["faults", "--fault-plan", "seed=7;cell_loss(rate=0.002)"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fault plan:" in out
    assert "cell_loss" in out


def test_quick_scale_is_quick():
    assert QUICK.jacobi_large.n <= 256
    assert max(QUICK.procs) <= 8


def test_runner_cli_lists_experiments(capsys):
    from repro.harness.runner import main
    rc = main([])
    out = capsys.readouterr().out
    assert rc == 2
    assert "fig14" in out


def test_runner_cli_runs_table1(capsys):
    from repro.harness.runner import main
    rc = main(["table1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "simulation-parameters" in out


def test_runner_cli_svg_and_csv_export(tmp_path, capsys):
    from repro.harness.runner import main

    out = tmp_path / "figs"
    rc = main(["fig14", "--svg", str(out), "--csv", str(out)])
    assert rc == 0
    assert (out / "fig14.svg").exists()
    assert (out / "fig14.csv").exists()


def test_runner_cli_option_requires_value():
    import pytest as _pytest
    from repro.harness.runner import main

    with _pytest.raises(SystemExit):
        main(["fig14", "--svg"])
