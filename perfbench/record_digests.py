"""Record the exit code and report digest of every suite call the benchmark
can make, into digests.json.  Run it once, at the commit that defines the
benchmark; later commits are checked against what it wrote:

    python3 perfbench/record_digests.py
"""

import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import fovea.cli  # noqa: E402,F401
import workloads  # noqa: E402


def main() -> int:
    fixtures = ROOT / "src" / "fovea" / "fixtures"
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    os.chdir(work)
    suites = workloads.SuiteCalls({}, fixtures, work)
    out = {}
    for suite, name, text in workloads.recorded_calls():
        call = suites.call(suite, name, text)      # writes a generated input
        rc, report_sha = call.summarize(workloads.cli_main(*call.args))
        raw = text.encode() if text is not None else (fixtures / name).read_bytes()
        out[call.label] = {"input_sha256": hashlib.sha256(raw).hexdigest(), "exit": rc,
                           "report_sha256": report_sha}
        print(f"{rc} {call.label}", flush=True)
    (HERE / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
