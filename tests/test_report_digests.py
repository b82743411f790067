"""Golden report digests: the sha256 of stdout, and the exit code, of every
command on the bundled corpus, run in-process through `cli.main`.

A change that is meant to keep reports byte-identical must leave every entry
of `tests/data/report_digests.json` as it is.  To regenerate the file from
the tree under test, run

    PYTHONPATH=src python tests/test_report_digests.py > tests/data/report_digests.json
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

from equichi import character_table, cli, corpus

DIGESTS = Path(__file__).resolve().parent / "data" / "report_digests.json"


def _write(directory: Path, name: str, payload) -> str:
    path = directory / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


def _read(cid: str) -> dict:
    return json.loads(corpus.read_corpus_bytes(cid).decode("utf-8"))


def report_digests(directory: Path) -> dict:
    """Every report's digest and exit code, keyed by the command line with
    the corpus id in place of the input paths; inputs go under `directory`."""
    digests = {}
    for fmt in ("json", "table"):
        digests[f"verify --corpus --format {fmt}"] = _run(["verify", "--corpus", "--format", fmt])
    for cid in corpus.case_ids():
        doc = _read(cid)
        files = ["--group", _write(directory, f"{cid}-group.json", doc["group"])]
        files += ["--complex", _write(directory, f"{cid}-complex.json", doc["complex"])]
        k = len(character_table(corpus.load_case(cid).group))
        digests[f"{cid}: verify"] = _run(["verify", *files])
        digests[f"{cid}: strata"] = _run(["strata", *files])
        for r in range(k):
            digests[f"{cid}: strata --rho {r}"] = _run(["strata", *files, "--rho", str(r)])
    for bid in corpus.bundle_ids():
        doc = _read(bid)
        files = ["--group", _write(directory, f"{bid}-group.json", doc["group"])]
        files += ["--bundle", _write(directory, f"{bid}-bundle.json", doc["bundle"])]
        digests[f"{bid}: fine-decomp"] = _run(["fine-decomp", *files])
    for iid in corpus.index_data_ids():
        data = _write(directory, f"{iid}.json", _read(iid)["data"])
        digests[f"{iid}: assemble"] = _run(["assemble", "--data", data])
    return digests


def test_reports_match_the_golden_digests(tmp_path):
    start = time.perf_counter()
    digests = report_digests(tmp_path)
    elapsed = time.perf_counter() - start
    golden = json.loads(DIGESTS.read_text())
    assert sorted(digests) == sorted(golden)
    assert {k: v for k, v in digests.items() if v != golden[k]} == {}
    assert elapsed < 3.0, f"the golden reports took {elapsed:.2f}s"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(json.dumps(report_digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
