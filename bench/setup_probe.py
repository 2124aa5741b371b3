"""Set-up time in a fresh interpreter: import mmvcone, then load and build each model.

Reads ``{"src": <path>, "configs": [...]}`` on stdin and prints the elapsed
seconds.  Started by run.py once per set-up sample.
"""

import json
import sys
import time

job = json.loads(sys.stdin.read())
sys.path.insert(0, job["src"])
t0 = time.perf_counter()
from mmvcone import cli  # noqa: E402
from mmvcone.cones import cone_from_config  # noqa: E402
from mmvcone.market import build_model  # noqa: E402

for cfg in job["configs"]:
    cfg = cli.load_config(cfg)
    model = build_model(cfg["model"])
    cone_from_config(cfg["model"]["cone"], model.m)
print(repr(time.perf_counter() - t0))
