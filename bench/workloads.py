"""The benchmark's workloads: generated configs, CLI calls and output checks.

A workload is a list of CLI calls; one pass runs them all, in order, from
one process. Configs are written as ``key = value`` files, so the program
sees only the generated configs. Seed 0 reproduces the preset cost
levels; any other seed draws the curvatures of ``single_vi`` and
``mpe_cycle`` log-uniformly from [0.5, 200]. The other two workloads have
closed-form or preset inputs and ignore the seed.

Every check is computed here from the model's primitives (payoff
H*1{majority = preference}, cost k*d^2, an exact half split going to the
mover), never from the program's own functions or a stored output.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PRESET_K = (0.5, 10.0, 200.0)
K_RANGE = (0.5, 200.0)
BASE = {"pi": 0.5, "beta": 0.9, "H": 1.0}
TOL = 1e-10
COLUMN_BLOCK = 128  # dense maximisations run in column blocks to keep memory small


class CheckFailed(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Call:
    """One CLI invocation: subcommand, config keys, and its output check."""

    name: str
    command: str
    config: dict
    check: object  # check(out_dir, config) raises CheckFailed

    def config_text(self):
        lines = [f"experiment = {self.command}"]
        lines += [f"{key} = {_fmt(value)}" for key, value in self.config.items()]
        return "\n".join(lines) + "\n"


def _fmt(value):
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def draw_k(seed, count):
    """Curvatures drawn log-uniformly from K_RANGE, six significant digits."""
    rng = random.Random(seed)
    lo, hi = math.log(K_RANGE[0]), math.log(K_RANGE[1])
    return [float(f"{math.exp(rng.uniform(lo, hi)):.6g}") for _ in range(count)]


def build(workload, seed):
    """The calls of one pass of a workload, for one seed."""
    if workload == "single_vi":
        sweep_k = list(PRESET_K) if seed == 0 else draw_k(seed, 3)
        return [
            Call("sweep_k", "sweep", {"solver": "solve-single", "sweep.k": sweep_k, **BASE,
                                      "grid_n": 1001, "tol": TOL}, per_combo(check_single)),
        ]
    if workload == "mpe_cycle":
        mpe_k = list(PRESET_K) if seed == 0 else draw_k(seed, 3)
        return [
            Call("sweep_k", "sweep", {"solver": "solve-mpe", "sweep.k": mpe_k, **BASE,
                                      "grid_n": 501, "horizon": 600, "tol": TOL}, per_combo(check_mpe)),
        ]
    if workload == "mpe_ties_k0":
        return [
            Call("k0", "solve-mpe", {**BASE, "k": 0.0, "grid_n": 501, "horizon": 600, "tol": TOL},
                 check_mpe_k0),
        ]
    if workload == "two_period_io":
        return [
            Call("single2p", "solve-single2p", {**BASE, "k": 10.0, "grid_n": 1001}, check_single2p),
            Call("stackelberg", "solve-stackelberg", {**BASE, "k": 10.0, "grid_n": 1001},
                 check_stackelberg),
            Call("oracle", "oracle-check", {**BASE, "k": 10.0, "scan_n": 201, "oracle_n": 2001,
                                            "checks": ["period2", "period1", "stackelberg"]},
                 check_oracle),
        ]
    raise KeyError(workload)


WORKLOADS = ("single_vi", "mpe_cycle", "mpe_ties_k0", "two_period_io")


# ---- artifacts -------------------------------------------------------------


def artifact_digests(out_dir):
    """Recompute each artifact's SHA-256 against its manifest and return them.

    A sweep's combination directories carry manifests of their own, which
    are checked too: the sweep manifest hashes the files only at its end.
    """
    digests = {}
    for manifest_path in sorted(out_dir.glob("**/manifest.json")):
        here = manifest_path.parent
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        require(manifest["artifacts"], f"{manifest_path}: lists no artifacts")
        for entry in manifest["artifacts"]:
            path = here / entry["path"]
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            require(digest == entry["sha256"], f"{path}: SHA-256 differs from {manifest_path}")
            digests[str(path.relative_to(out_dir))] = digest
    require(digests, f"{out_dir}: no manifest")
    return digests


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:] if line]
    table = np.array(rows)
    return {name: table[:, i] for i, name in enumerate(header)}


def _manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


# ---- model primitives --------------------------------------------------------


def payoff(points, preferred, mover, H):
    """H when the majority at each point implements `preferred`; the mover picks at 1/2."""
    majority = np.where(points > 0.5, 1, np.where(points < 0.5, 0, mover))
    return H * (majority == preferred)


def dense_max(base, points, k, sources=None):
    """best[i] = max_j base[j] - k (points[j] - sources[i])^2, with its argmax."""
    sources = points if sources is None else sources
    best = np.empty(sources.size)
    arg = np.empty(sources.size, dtype=np.int64)
    for lo in range(0, sources.size, COLUMN_BLOCK):
        src = sources[lo : lo + COLUMN_BLOCK]
        d = points[:, None] - src[None, :]
        scores = base[:, None] - k * d * d
        arg[lo : lo + src.size] = scores.argmax(axis=0)
        best[lo : lo + src.size] = scores.max(axis=0)
    return best, arg


def grid_index(points, values, what):
    """Indices of values on the grid; every value must be a grid point."""
    idx = np.clip(np.searchsorted(points, values), 0, points.size - 1)
    require(np.array_equal(points[idx], values), f"{what}: an entry is not a grid point")
    return idx


def per_combo(check):
    """A check for a sweep over k: `check` applied to each combination directory."""

    def check_sweep(out_dir, config):
        combos = sorted(p for p in out_dir.iterdir() if p.name.startswith("combo_"))
        require(len(combos) == len(config["sweep.k"]), f"{out_dir}: expected one directory per k")
        for combo, k in zip(combos, config["sweep.k"]):
            check(combo, {**config, "k": k})

    return check_sweep


# ---- single_vi ---------------------------------------------------------------


def check_single(out_dir, config):
    H, beta, pi, k, tol = config["H"], config["beta"], config["pi"], config["k"], config["tol"]
    value = read_csv(out_dir / "value.csv")
    policy = read_csv(out_dir / "policy.csv")
    pts = value["p"]
    mid = pts.size // 2
    require(pts[mid] == 0.5 and np.array_equal(policy["p"], pts), f"{out_dir}: bad grid")
    v = {0: value["v_s0"], 1: value["v_s1"]}
    sigma = {0: policy["sigma_s0"], 1: policy["sigma_s1"]}
    peak = H / (1.0 - beta)
    continuation = pi * v[1] + (1.0 - pi) * v[0]
    for s in (0, 1):
        require(abs(v[s][mid] - peak) <= beta / (1.0 - beta) * tol,
                f"{out_dir}: V_{s}(1/2) = {float(v[s][mid])!r}, expected {peak!r}")
        base = payoff(pts, s, s, H) + beta * continuation
        best, _ = dense_max(base, pts, k)
        require(np.abs(best - v[s]).max() <= tol, f"{out_dir}: a Bellman sweep moves v_s{s} by more than tol")
        idx = grid_index(pts, sigma[s], f"{out_dir} sigma_s{s}")
        d = sigma[s] - pts
        require((base[idx] - k * d * d >= best - tol).all(), f"{out_dir}: a sigma_s{s} entry misses its row max")
        lower, upper = np.minimum(pts, 0.5), np.maximum(pts, 0.5)
        require(((sigma[s] >= lower) & (sigma[s] <= upper)).all(),
                f"{out_dir}: sigma_s{s} moves away from or past 1/2")
    if pi == 0.5:
        require(np.array_equal(v[0], v[1][::-1]), f"{out_dir}: v_s0 is not v_s1 mirrored")


# ---- mpe_cycle and mpe_ties_k0 -------------------------------------------------


def _mpe_tables(out_dir):
    value = read_csv(out_dir / "value.csv")
    policy = read_csv(out_dir / "policy.csv")
    require(np.array_equal(value["p"], policy["p"]), f"{out_dir}: policy and value grids differ")
    return value, policy


def _recompute_waiting(value, policy, elite, config):
    """Waiting value of `elite` from its mover values and the rival's policy."""
    H, beta, pi = config["H"], config["beta"], config["pi"]
    pts = value["p"]
    rival = "B" if elite == "A" else "A"
    continuation = pi * value[f"v{elite}_s1"] + (1.0 - pi) * value[f"v{elite}_s0"]
    fresh = np.zeros(pts.size)
    for s in (0, 1):
        own = s if elite == "A" else 1 - s
        landing = grid_index(pts, policy[f"sigma{rival}_s{s}"], f"sigma{rival}_s{s}")
        stage = payoff(pts, own, 1 - own, H)[landing]  # the rival moved, so it picks at 1/2
        prob = pi if s == 1 else 1.0 - pi
        fresh = fresh + prob * (stage + beta * continuation[landing])
    return fresh


def check_mpe(out_dir, config):
    H, beta = config["H"], config["beta"]
    value, policy = _mpe_tables(out_dir)
    for elite in ("A", "B"):
        fresh = _recompute_waiting(value, policy, elite, config)
        require(np.abs(fresh - value[f"u{elite}"]).max() <= 1e-12, f"{out_dir}: u{elite} does not recompute")
    for name, column in value.items():
        if name != "p":
            require(((column >= 0.0) & (column <= H / (1.0 - beta))).all(), f"{out_dir}: {name} out of range")
    if config["pi"] == 0.5:
        mirrored = all(np.array_equal(value[f"vB_s{s}"], value[f"vA_s{s}"][::-1]) for s in (0, 1))
        mirrored = mirrored and np.array_equal(value["uB"], value["uA"][::-1])
        mirrored = mirrored and all(
            np.array_equal(policy[f"sigmaB_s{s}"], 1.0 - policy[f"sigmaA_s{s}"][::-1]) for s in (0, 1)
        )
        require(mirrored, f"{out_dir}: role-swap mirror identities fail")
    return value, policy


def check_mpe_k0(out_dir, config):
    H, beta, k = config["H"], config["beta"], config["k"]
    value, policy = check_mpe(out_dir, config)
    mover, waiting = H / (1.0 - beta * beta), beta * H / (1.0 - beta * beta)
    for elite in ("A", "B"):
        for s in (0, 1):
            require(np.abs(value[f"v{elite}_s{s}"] - mover).max() <= 1e-8, f"{out_dir}: v{elite}_s{s} != H/(1-b^2)")
        require(np.abs(value[f"u{elite}"] - waiting).max() <= 1e-8, f"{out_dir}: u{elite} != bH/(1-b^2)")
    require(_manifest(out_dir)["diagnostics"]["stationary"] is True, f"{out_dir}: manifest not stationary")
    pts = value["p"]
    gain = -math.inf
    for elite in ("A", "B"):
        for s in (0, 1):
            own = s if elite == "A" else 1 - s
            base = payoff(pts, own, own, H) + beta * value[f"u{elite}"]
            best, _ = dense_max(base, pts, k)
            idx = grid_index(pts, policy[f"sigma{elite}_s{s}"], f"sigma{elite}_s{s}")
            d = pts[idx] - pts
            played = base[idx] - k * d * d
            gain = max(gain, (best - value[f"v{elite}_s{s}"]).max(), (best - played).max())
    require(gain <= 1e-8, f"{out_dir}: no-deviation gain {gain!r} > 1e-8")


# ---- two_period_io -------------------------------------------------------------


def _oracle_grid(n):
    """n-point grid on [0, 1] quantized to multiples of 2^-52, mirrored exactly."""
    m = (n - 1) // 2
    left = np.array([(2 * i * 2**52 + (n - 1)) // (2 * (n - 1)) for i in range(m + 1)], dtype=float)
    return np.concatenate([left, float(2**52) - left[:m][::-1]]) * 2.0**-52


def check_single2p(out_dir, config):
    H, beta, pi, k = config["H"], config["beta"], config["pi"], config["k"]
    value = read_csv(out_dir / "value.csv")
    oracle = _oracle_grid(2001)
    # Period 2: the elite preferring s2 moves after the state is seen.
    last = {s2: dense_max(payoff(oracle, s2, s2, H), oracle, k)[0] for s2 in (0, 1)}
    continuation = pi * last[1] + (1.0 - pi) * last[0]
    pts = value["p"]
    grid_index(oracle, pts, f"{out_dir} p")
    for s in (0, 1):
        best, _ = dense_max(payoff(oracle, s, s, H) + beta * continuation, oracle, k, pts)
        worst = np.abs(best - value[f"v_s{s}"]).max()
        require(worst <= 2e-4, f"{out_dir}: period-1 value off the brute force by {worst:.3e}")
    _check_candidates(out_dir / "candidates.json", "p")


def check_stackelberg(out_dir, config):
    H, beta, pi, k = config["H"], config["beta"], config["pi"], config["k"]
    value = read_csv(out_dir / "value.csv")
    oracle = _oracle_grid(2001)
    # Period 2: the follower prefers 1 - s2, gets the half split, and stays
    # when staying is as good as its best reply.
    leader = np.zeros(oracle.size)
    for s2 in (0, 1):
        follower = 1 - s2
        stage = payoff(oracle, follower, follower, H)
        best, arg = dense_max(stage, oracle, k)
        reply = np.where(stage >= best, oracle, oracle[arg])
        prob = pi if s2 == 1 else 1.0 - pi
        leader = leader + prob * payoff(reply, s2, follower, H)
    pts = value["p"]
    grid_index(oracle, pts, f"{out_dir} p")
    for s in (0, 1):
        best, _ = dense_max(payoff(oracle, s, s, H) + beta * leader, oracle, k, pts)
        worst = np.abs(best - value[f"v_s{s}"]).max()
        require(worst <= 2e-3, f"{out_dir}: leader value off the brute force by {worst:.3e}")
    records = _check_candidates(out_dir / "candidates.json", "p0")
    if (k, H, beta, pi) == (10.0, 1.0, 0.9, 0.5):
        # Worked anchor: from p0 = 0.35 in state 0 the leader parks opinion
        # at the semi-lock point 1/2 - sqrt(H/k) and keeps (1-pi)*beta*H.
        anchor = min((r for r in records if r["s1"] == 0), key=lambda r: abs(r["p0"] - 0.35))
        point = 0.5 - math.sqrt(0.1)
        expected = 1.0 - 10.0 * (anchor["p0"] - point) ** 2 + 0.45
        require(abs(anchor["p0"] - 0.35) < 1e-12, f"{out_dir}: no record at p0 = 0.35")
        require(abs(anchor["chosen"] - point) <= 1e-15, f"{out_dir}: anchor chose {anchor['chosen']!r}")
        require(abs(anchor["value"] - expected) <= 1e-12, f"{out_dir}: anchor value {anchor['value']!r}")


def _check_candidates(path, key):
    records = json.loads(path.read_text(encoding="utf-8"))
    require(records, f"{path}: no records")
    for record in records:
        top = max(c["objective"] for c in record["candidates"])
        chosen = [c for c in record["candidates"] if c["candidate"] == record["chosen"]]
        require(chosen and max(c["objective"] for c in chosen) == top == record["value"],
                f"{path}: at {key}={record[key]!r}, s={record.get('s', record.get('s1'))} "
                "the chosen candidate is not the best")
    return records


def check_oracle(out_dir, config):
    report = json.loads((out_dir / "oracle_check.json").read_text(encoding="utf-8"))
    require(report["passed"] is True, f"{out_dir}: oracle check did not pass")
    require(sorted(report["checks"]) == sorted(config["checks"]), f"{out_dir}: oracle checks missing")
