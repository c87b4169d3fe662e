import os
import subprocess
import sys
from pathlib import Path

import dagpart

# Importing the package loads only itself and the standard library: an
# optional solver such as scipy is imported inside the function that uses
# it, so every CLI call and the bench's setup_s do not pay for it.
SCRIPT = """
import sys
before = set(sys.modules)
import dagpart
print("\\n".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_the_package_and_the_standard_library():
    src = str(Path(dagpart.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "dagpart" in out
    assert [name for name in out
            if name != "dagpart" and name not in sys.stdlib_module_names] == []
