import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
# the checks' oracles import the package from this checkout
sys.path.insert(0, str(HERE.parent / "src"))
