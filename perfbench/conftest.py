"""Test set-up: import padicfft from src/ and the benchmark modules from here."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
