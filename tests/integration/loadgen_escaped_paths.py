"""loadgen --json must escape request paths it was given on the command line.

Runs `loadgen` (path in argv[1]) against its in-process server with one
--path holding a quote and a backslash, then loads the JSON file it wrote
with Python's json module and checks the path came back unchanged.

    python3 loadgen_escaped_paths.py path/to/loadgen
"""
import json
import os
import subprocess
import sys
import tempfile

PATH = '/v1/claims?note="q\\"'


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "loadgen.json")
        subprocess.run([sys.argv[1], "--connections", "1", "--requests", "4",
                        "--path", PATH, "--json", out],
                       check=True, stdout=subprocess.DEVNULL)
        with open(out, encoding="utf-8") as f:
            doc = json.load(f)
    if doc["paths"] != [PATH]:
        sys.exit(f"paths came back as {doc['paths']!r}, want {[PATH]!r}")
    if doc["failed_requests"] != 0:
        sys.exit(f"{doc['failed_requests']} request(s) failed")
    print("ok:", doc["paths"])


if __name__ == "__main__":
    main()
