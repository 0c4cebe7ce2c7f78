"""Option handling of the ``python -m repro.harness`` CLI: every parse
error must exit non-zero with a message on stderr — never a traceback,
never a silent success."""

import pytest

from repro.harness.runner import main


def test_bad_jobs_value_exits_nonzero(capsys):
    assert main(["--jobs", "nope", "fig2"]) == 1
    err = capsys.readouterr().err
    assert "--jobs" in err


def test_negative_jobs_value_exits_nonzero(capsys):
    assert main(["--jobs", "0", "fig2"]) == 1
    assert "--jobs" in capsys.readouterr().err


def test_flag_missing_value_exits_nonzero():
    with pytest.raises(SystemExit) as info:
        main(["fig2", "--jobs"])
    assert "--jobs needs a value" in str(info.value)


def test_unknown_experiment_id_exits_nonzero(capsys):
    assert main(["no_such_experiment"]) == 2
    err = capsys.readouterr().err
    assert "no_such_experiment" in err
    assert "fig2" in err  # the message lists the valid choices


def test_bad_deadline_and_heartbeat_exit_nonzero(capsys):
    assert main(["--deadline-ns", "soon", "fig2"]) == 1
    assert "--deadline-ns" in capsys.readouterr().err
    assert main(["--heartbeat-ns", "often", "fig2"]) == 1
    assert "--heartbeat-ns" in capsys.readouterr().err


def test_bad_collectives_value_exits_nonzero(capsys):
    assert main(["--collectives", "carrier-pigeon", "fig2"]) == 1
    assert "--collectives" in capsys.readouterr().err


def test_bad_fault_plan_exits_nonzero(capsys):
    assert main(["--fault-plan", "gibberish((", "fig2"]) == 1
    assert "--fault-plan" in capsys.readouterr().err


def test_no_arguments_prints_usage(capsys):
    assert main([]) == 2
    assert "experiments:" in capsys.readouterr().out


def test_metrics_bad_nprocs_exits_nonzero(capsys):
    assert main(["metrics", "--nprocs", "zonk"]) == 2
    assert "--nprocs" in capsys.readouterr().err
    assert main(["metrics", "--nprocs", "0"]) == 2
    assert "--nprocs" in capsys.readouterr().err


def test_metrics_bad_interface_exits_nonzero(capsys):
    assert main(["metrics", "--interface", "rfc1149"]) == 2
    assert "--interface" in capsys.readouterr().err


def test_metrics_unrecognized_arguments_exit_nonzero(capsys):
    assert main(["metrics", "--frobnicate"]) == 2
    assert "--frobnicate" in capsys.readouterr().err


def test_failing_experiment_does_not_stop_the_rest(monkeypatch, tmp_path,
                                                   capsys):
    from repro.harness import runner
    from repro.harness.results import TableResult

    def ok(exp_id):
        def run(scale, base_params):
            return TableResult(f"{exp_id} ran", ["value"], {"row": [1.0]})
        return run

    def boom(scale, base_params):
        raise RuntimeError("planted failure")

    monkeypatch.setattr(runner, "EXPERIMENTS",
                        {"aa": ok("aa"), "bb": boom, "cc": ok("cc")})
    assert main(["all", "--results", str(tmp_path)]) == 1
    assert "bb: RuntimeError: planted failure" in capsys.readouterr().err
    text = (tmp_path / "quick_scale_results.txt").read_text()
    assert "aa ran" in text and "cc ran" in text
