"""The package namespace: its public names and when their modules load."""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Run in a fresh interpreter, as the test session has long imported every
# module; each step asserts on the state the steps before it left.
PUBLIC_NAMES_SCRIPT = """
import sys
sys.path.insert(0, SRC)
import feyncount

def loaded():
    return sorted(name for name in sys.modules if name.startswith('feyncount.'))

def missing(name):
    try:
        getattr(feyncount, name)
    except AttributeError:
        return True
    return False

assert loaded() == [], loaded()
assert {'__all__', '__version__', 'compositions', 'counting', 'oracle'} <= set(dir(feyncount))
assert set(feyncount.__all__) <= set(dir(feyncount))
assert missing('cli') and missing('no_such_name')

# a module name resolves after a bare import, loading only what it needs
assert feyncount.counting is sys.modules['feyncount.counting']
assert loaded() == ['feyncount.compositions', 'feyncount.counting'], loaded()

star = {}
exec('from feyncount import *', star)
del star['__builtins__']
assert sorted(star) == sorted(feyncount.__all__), sorted(star)
assert len(feyncount.__all__) == len(set(feyncount.__all__))

modules = [feyncount.compositions, feyncount.counting, feyncount.oracle]
for name in feyncount.__all__:
    value = getattr(feyncount, name)
    assert star[name] is value, name
    if name == '__version__':
        continue
    # every module that binds the name binds this object, and a function or
    # class is exported from the module that defines it
    homes = [module for module in modules if hasattr(module, name)]
    assert homes and all(getattr(module, name) is value for module in homes), name
    defined_in = getattr(value, '__module__', None)
    if defined_in is not None:
        assert getattr(sys.modules[defined_in], name) is value, name

# the star import loads the three modules, but not the command
assert loaded() == ['feyncount.compositions', 'feyncount.counting', 'feyncount.oracle'], loaded()
assert missing('cli')
from feyncount import cli
assert feyncount.cli is cli and 'cli' in dir(feyncount)
"""


def test_public_names_are_their_modules_objects_and_load_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"SRC = {SRC!r}\n{PUBLIC_NAMES_SCRIPT}"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == proc.stderr == ""
