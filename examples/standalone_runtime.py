"""Every party her own OS process: the standalone runtime quickstart.

The paper's deployment (§8.1) is m autonomous organisations, one machine
each — nobody provisions anybody, nobody schedules anybody.  This example
reproduces that shape end to end on one host:

1. generate one ``partyN.toml`` per party (shared address book, data spec
   and pivot parameters; only the index differs),
2. launch every party — **including the super client** — as a separate
   ``python -m repro.federation.runtime --config partyN.toml`` process,
3. the parties find each other over the TCP mesh, run **distributed
   Paillier keygen** (no trusted dealer: each samples her own shares and
   walks away with her d_i alone — the full private key never exists in
   any process), then train and predict: the super client's process
   drives the flows, every other party *reacts* on her own socket.

The orchestrator process prints a JSON summary on stdout; this script
checks it — the run completed, the model trained, and every process's
key-material audit reports ``full_private_key: false``.

Run:  python examples/standalone_runtime.py
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
N_PARTIES = 3


def launch(config_path: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.federation.runtime",
         "--config", str(config_path)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT if "--verbose" in sys.argv else None,
        text=True,
    )


def main() -> None:
    sys.path.insert(0, str(REPO / "src"))
    from repro.federation.runtime import write_party_configs

    with tempfile.TemporaryDirectory(prefix="pivot-runtime-") as tmp:
        paths = write_party_configs(
            tmp,
            n_parties=N_PARTIES,
            n_samples=24,
            n_features=6,
            keysize=256,
            max_depth=2,
            max_splits=2,
            predict_rows=6,
            timeout=60.0,
        )
        print(f"configs: {', '.join(p.name for p in paths)} in {tmp}")

        # Parties first (they block in keygen until everyone is up), then
        # the super client's orchestrator process; start order actually
        # does not matter — the socket transport re-dials until its
        # connect_timeout.
        processes = [launch(p) for p in paths[1:]]
        orchestrator = launch(paths[0])
        print(f"launched {N_PARTIES} party processes "
              f"(pids {[p.pid for p in processes + [orchestrator]]})")

        out, _ = orchestrator.communicate(timeout=600)
        for process in processes:
            process.wait(timeout=60)  # exits on the orchestrator's shutdown

        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["ok"], summary
        assert summary["keygen"] == "distributed"
        assert len(summary["predictions"]) == 6
        for index, report in sorted(summary["key_report"].items()):
            assert report["full_private_key"] is False, (
                f"party {index} claims the full private key exists!"
            )
            print(f"party {index} key audit: d_share only, "
                  "full_private_key=False")
        print(f"trained (signature depth ok), score={summary['score']:.3f}, "
              f"{summary['bytes']} protocol bytes, "
              f"{summary['rounds']} rounds")
        codes = [orchestrator.returncode] + [p.returncode for p in processes]
        assert codes == [0] * N_PARTIES, codes
        print("OK: fit+predict with every party standalone from config, "
              "distributed keygen, clean shutdown")


if __name__ == "__main__":
    main()
