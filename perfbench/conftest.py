import sys
from pathlib import Path

# the self-tests import the solver from this checkout, as the benchmark does
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
