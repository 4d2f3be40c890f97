import sys
from pathlib import Path

from hypothesis import Phase, settings

# Make sibling oracle helpers importable regardless of invocation directory.
sys.path.insert(0, str(Path(__file__).resolve().parent))

# Report the first failing example without shrinking it: on a broken series
# kernel every property fails, and shrinking each one takes minutes.
settings.register_profile("no-shrink", phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("no-shrink")
