#!/usr/bin/env python3
"""Drive the full verification battery through the CLI.

Runs the d^2, chain-map, quasi-isomorphism and quotient suites for both
parities at desk scale and reports a one-line verdict each, followed by
the SHA-256 of the command's ``rows`` (``-`` when it printed no record).
The verifiers' rows carry verdicts only, so two ``enumerate`` runs add
the connected basis sizes of both parities, and a change in a basis
shows too.  The rows are deterministic, so a ``diff`` of two reports,
say of two checkouts, shows each command whose verdict or rows differ.
"""

import hashlib
import json
import subprocess
import sys

RUNS = [
    ("d^2 = 0 (connected, even)", ["--command", "verify-dsq", "--n", "0", "--colors", "1",
                                   "--vertices-max", "5", "--edges-max", "8",
                                   "--constraints", "connected"]),
    ("d^2 = 0 (connected, odd)", ["--command", "verify-dsq", "--n", "1", "--colors", "1",
                                  "--vertices-max", "5", "--edges-max", "8",
                                  "--constraints", "connected"]),
    ("d^2 = 0 (connected, two colors, even)", ["--command", "verify-dsq", "--n", "0", "--colors", "2",
                                              "--vertices-max", "4", "--edges-max", "6",
                                              "--constraints", "connected"]),
    ("d^2 = 0 (connected, two colors, odd)", ["--command", "verify-dsq", "--n", "1", "--colors", "2",
                                             "--vertices-max", "4", "--edges-max", "6",
                                             "--constraints", "connected"]),
    ("d^2 = 0 (reduced, even)", ["--command", "verify-dsq", "--n", "0", "--colors", "1",
                                 "--vertices-max", "5", "--edges-max", "8"]),
    ("d^2 = 0 (reduced, odd)", ["--command", "verify-dsq", "--n", "1", "--colors", "1",
                                "--vertices-max", "5", "--edges-max", "8"]),
    ("chain map (even)", ["--command", "verify-chain", "--n", "0"]),
    ("chain map (odd)", ["--command", "verify-chain", "--n", "1"]),
    ("quasi-isomorphism (even)", ["--command", "verify-thm1", "--n", "0"]),
    ("quasi-isomorphism (odd)", ["--command", "verify-thm1", "--n", "1"]),
    ("subcomplex properties (even)", ["--command", "verify-props", "--n", "0", "--colors", "0"]),
    ("subcomplex properties (even, one color)", ["--command", "verify-props", "--n", "0", "--colors", "1"]),
    ("subcomplex properties (odd)", ["--command", "verify-props", "--n", "1", "--colors", "1"]),
    ("basis sizes (connected, even)", ["--command", "enumerate", "--n", "0", "--colors", "1",
                                       "--vertices-max", "5", "--edges-max", "7",
                                       "--constraints", "connected"]),
    ("basis sizes (connected, odd)", ["--command", "enumerate", "--n", "1", "--colors", "1",
                                      "--vertices-max", "5", "--edges-max", "7",
                                      "--constraints", "connected"]),
]


def rows_digest(stdout):
    """SHA-256 of the rows of a JSON record, or ``-`` if there is none."""
    try:
        rows = json.loads(stdout)["rows"]
    except (ValueError, KeyError, TypeError):
        return "-"
    return hashlib.sha256(json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def main():
    failures = 0
    for label, argv in RUNS:
        proc = subprocess.run(
            [sys.executable, "-m", "ogc.cli"] + argv, capture_output=True, text=True
        )
        verdict = "PASS" if proc.returncode == 0 else f"FAIL (exit {proc.returncode})"
        print(f"{label:<40} {verdict:<14} {rows_digest(proc.stdout)}")
        if proc.returncode != 0:
            failures += 1
            sys.stderr.write(proc.stdout + proc.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
