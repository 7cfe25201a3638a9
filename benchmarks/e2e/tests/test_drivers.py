"""The seed contract: one seed, one list of inputs, in every process."""

import json
import subprocess
import sys

import drivers


def _listing(cells):
    return [[cell.name, cell.volume] for cell in cells]


def test_same_seed_same_order_and_volumes():
    for workload in drivers.WORKLOADS:
        assert _listing(drivers.plan(workload, 7)) == _listing(
            drivers.plan(workload, 7)
        )


def test_another_seed_changes_volumes_within_the_jitter():
    for workload, definition in drivers.WORKLOADS.items():
        base = {cell.name: cell.volume for cell in definition.cells}
        one, other = drivers.plan(workload, 1), drivers.plan(workload, 2)
        assert sorted(c.name for c in one) == sorted(base)
        assert _listing(one) != _listing(other)
        for cell in one:
            low = base[cell.name] * (1 - drivers.VOLUME_JITTER) - 1
            high = base[cell.name] * (1 + drivers.VOLUME_JITTER) + 1
            assert low <= cell.volume <= high, cell
            if not cell.jitter:
                assert cell.volume == base[cell.name]


def test_plan_is_identical_in_a_fresh_process():
    script = (
        "import json, drivers; print(json.dumps("
        "[[c.name, c.volume] for c in drivers.plan('exec-alt', 11)]))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        cwd=drivers.HERE,
        env={"PYTHONHASHSEED": "123", "PATH": ""},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert json.loads(completed.stdout) == _listing(drivers.plan("exec-alt", 11))


def test_smoke_shrinks_every_volume_and_the_burst():
    full = {cell.name: cell for cell in drivers.plan("exec-alt", 3)}
    for cell in drivers.plan("exec-alt", 3, smoke=True):
        assert cell.volume <= full[cell.name].volume // 10
        if cell.kind == "burst":
            assert cell.args["jobs"] == full[cell.name].args["jobs"] // 20
    assert [c.name for c in drivers.plan("exec-alt", 3, smoke=True)] == list(full)


def test_stated_records_counts_every_job_and_ablation_cell():
    cells = {cell.name: cell for cell in drivers.plan("exec-alt", 0)}
    burst = cells["service-burst"]
    assert drivers.stated_records(burst) == burst.volume * 80
    assert drivers.stated_records(cells["ablate-2cell"]) == (
        cells["ablate-2cell"].volume * 2
    )
    small = {cell.name: cell for cell in drivers.plan("cli-cold", 0)}
    assert drivers.stated_records(small["run-small"]) == 200
    assert drivers.stated_records(small["list"]) == 0


def test_submit_has_a_seeded_store_of_its_own(tmp_path):
    cells = drivers.plan("cli-cold", 0)
    template = tmp_path / "template"
    template.mkdir()
    (template / "runs.jsonl").write_text("{}\n", encoding="utf-8")
    ctx = drivers._round_context(0, tmp_path, template, cells, 0)
    stores = {cell.name: ctx.store(cell) for cell in cells}
    assert stores["submit"] != stores["jobs-list"]
    assert {stores[name] for name in stores if name != "submit"} == {
        stores["jobs-list"]
    }
    for store in stores.values():
        assert (store / "runs.jsonl").read_text(encoding="utf-8") == "{}\n"


def test_submit_check_counts_events_in_whatever_order_they_were_logged(tmp_path):
    import checks
    from repro.service.jobs import JobLog

    cell = next(c for c in drivers.plan("cli-cold", 0) if c.name == "submit")
    cell = drivers.replace(cell, args={**cell.args, "jobs_before": 0})
    done = subprocess.CompletedProcess([], 0, stdout="", stderr="")
    for order in (
        ["queued", "admitted", "running", "done"],
        ["admitted", "running", "done", "queued"],
    ):
        (tmp_path / JobLog.FILENAME).write_text(
            "".join(
                json.dumps({"job_id": "j0001", "event": event}) + "\n"
                for event in order
            ),
            encoding="utf-8",
        )
        assert checks.check_cli(cell, done, tmp_path)[0] == []
    (tmp_path / JobLog.FILENAME).write_text(
        json.dumps({"job_id": "j0001", "event": "queued"}) + "\n",
        encoding="utf-8",
    )
    assert checks.check_cli(cell, done, tmp_path)[0]
