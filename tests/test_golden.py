import importlib.util
import json

from conftest import REPO


def load_golden():
    spec = importlib.util.spec_from_file_location("golden", REPO / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_toy_runs_write_the_bytes_of_the_manifest(tmp_path):
    # every file, exit code, stdout and stderr of the toy- and blocks-bundle runs against tests/golden.json; a
    # change that alters one on purpose reruns scripts/golden.py and lists the named entries
    golden = load_golden()
    got = golden.run_all(tmp_path)
    changes = golden.changed(json.loads(golden.MANIFEST.read_text()), got)
    assert changes == [], "changed: " + ", ".join(changes)
    # the .f64 copy and the shift.csv layouts that the loader reads line by line give the plain bytes
    for name in golden.SAME_AS_EVALUATE:
        assert got[name] == got["evaluate"], name
    # the blocks bundle's CSV copy, whose arrays are writeable, audits as its read-only .f64 maps
    for name, same in golden.SAME_AS.items():
        assert got[name] == got[same], name
