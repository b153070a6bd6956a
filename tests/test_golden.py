"""Every pinned CLI record, replayed from golden/cli.jsonl; see golden/regen.py."""

import pytest

from golden.regen import GOLDEN, records, run

from mdsteer.behaviors import pr_box

RECORDS = records()


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: "_".join(record["argv"]))
def test_replay(record):
    assert run(record["argv"]) == (record["exit"], record["stdout"])


def test_argvs_distinct():
    argvs = [tuple(record["argv"]) for record in RECORDS]
    assert len(set(argvs)) == len(argvs)


def test_pr_json_is_the_pr_box():
    # The records that read pr.json pin the PR box's outputs; CI replays them on a copy.
    assert (GOLDEN / "pr.json").read_bytes() == pr_box().to_json().encode()
