"""Time one fresh-process set-up: `import ergopump`, then parse every game.

Reads a JSON list of game documents on stdin and prints the perf_counter
stamps {"start": ..., "imported": ..., "parsed": ...} on stdout. run.py
starts this script once per set-up repetition, so every import is a cold one.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    texts = json.load(sys.stdin)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    from ergopump import documents

    imported = time.perf_counter()
    for text in texts:
        documents.parse_game(text)
    parsed = time.perf_counter()
    if not Path(documents.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"ergopump was imported from {documents.__file__}, not {SRC}")
    print(json.dumps({"start": start, "imported": imported, "parsed": parsed}))


if __name__ == "__main__":
    main()
