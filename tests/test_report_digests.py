"""Suite reports stay byte-identical.

perfbench/digests.json records the exit code and the sha256 of the report
of every suite call the benchmark makes.  Each entry on a packaged fixture
is run here in-process and compared with its record; entries on generated
inputs (gen-*) and on the loop cover are left to the benchmark, which
writes those inputs itself.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from fovea.cli import main
from fovea.naming import fixture_names

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text())
FIXTURES = set(fixture_names())
ENTRIES = sorted(key for key in DIGESTS if key.split()[1] in FIXTURES)


def test_every_packaged_fixture_entry_is_checked():
    assert len(ENTRIES) == 22


@pytest.mark.parametrize("key", ENTRIES)
def test_report_matches_its_recorded_digest(monkeypatch, tmp_path, key):
    suite, name = key.split()
    monkeypatch.chdir(tmp_path)     # the bare name must resolve to the fixture
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["suite", suite, name])
    record = DIGESTS[key]
    assert rc == record["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == record["report_sha256"]
