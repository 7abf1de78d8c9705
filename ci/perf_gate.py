#!/usr/bin/env python3
"""Bench gates over this run's BENCH_*.json, in two modes.

Threshold gates (`--gates BENCH_sim.json`): the absolute acceptance
numbers micro_sim records, as one declarative table (GATES below):

  - byzantine  under 10% sign-flip attackers, coordinate_median and
               trimmed_mean stay within `tolerance` of the attack-free
               AUC while the unguarded weighted_average diverges
  - arms_race  multi_krum tracks the attack-free AUC, the anomaly
               detector clears 0.8/0.8 precision/recall, reputation
               sampling wins back half the AUC gap, and the adaptive
               attacker costs norm_clipped_mean >= 0.05 AUC more than
               the oblivious one
  - hundred_k  the K = 100k streaming round ran and its peak RSS
               stayed flat

A gate stops at its first failing check and prints that check's
message; any failing gate makes the run exit 1. `--self-test` feeds
every gate one passing and one failing fixture, and does the same for
the conv-layer and conv-backward rows of the trajectory gate below.

Perf-trajectory gate (no arguments): diff this run's BENCH_*.json
against the previous successful main run's `bench-trajectory` artifact
and fail on a >20% regression in the headline numbers.

Gated metrics (current vs previous):
  - BENCH_sim.json     events_per_sec                  must be >= 0.8x
  - BENCH_sim.json     thousand_clients.round_host_ms  must be <= 1.2x
  - BENCH_sim.json     arms_race.{detector_precision,detector_recall,
                       multi_krum_auc,reputation_auc}  must be >= 0.8x
  - BENCH_sim.json     hundred_k.events_per_sec        must be >= 0.8x
  - BENCH_comm.json    codecs[*].encode_mb_per_s       must be >= 0.8x
  - BENCH_comm.json    codecs[*].decode_mb_per_s       must be >= 0.8x
  - BENCH_kernels.json shapes[*].auto_gflops           must be >= 0.8x
  - BENCH_kernels.json plan_cache.hit_rate             must be >= 0.8x
  - BENCH_kernels.json conv_layers[*].direct_ms        must be <= 1.2x
  - BENCH_kernels.json conv_backward[*].bwd_ms         must be <= 1.2x

Stdlib only (urllib + zipfile against the GitHub REST API). The gate is
advisory-by-absence: no GITHUB_TOKEN, no previous artifact, or an API
error exits 0 with a skip message, so forks and the first run on a
fresh repo pass trivially. An actual regression exits 1.

Environment: GITHUB_TOKEN, GITHUB_REPOSITORY ("owner/repo"), and
optionally GITHUB_WORKFLOW_REF / PERF_GATE_WORKFLOW (workflow file name,
default ci.yml) and PERF_GATE_BRANCH (default main).
"""

import argparse
import copy
import io
import json
import os
import sys
import urllib.error
import urllib.request
import zipfile

# --- threshold gates ---------------------------------------------------
#
# One row per gate: the BENCH_sim.json values it reads (`values`), its
# checks in order as (predicate, failure message), and the line printed
# when every check holds. Messages are str.format templates over the
# values, so `{byz}` prints the whole block.

def _byzantine_values(bench):
    byz = bench["byzantine"]
    tol, clean = byz["tolerance"], byz["clean_auc"]
    return {
        "byz": byz, "tol": tol, "clean": clean,
        "median_gap": abs(byz["coordinate_median_auc"] - clean),
        "trimmed_gap": abs(byz["trimmed_mean_auc"] - clean),
        "wa_gap": abs(byz["weighted_average_auc"] - clean),
    }


def _arms_race_values(bench):
    ar, byz = bench["arms_race"], bench["byzantine"]
    return {
        "ar": ar, "byz": byz,
        "krum_gap": abs(ar["multi_krum_auc"] - byz["clean_auc"]),
    }


def _hundred_k_values(bench):
    return {"hk": bench["hundred_k"]}


GATES = (
    {
        "name": "byzantine",
        "values": _byzantine_values,
        "checks": (
            (lambda v: v["median_gap"] <= v["tol"],
             "coordinate_median drifted {median_gap:.4f} > {tol}: {byz}"),
            (lambda v: v["trimmed_gap"] <= v["tol"],
             "trimmed_mean drifted {trimmed_gap:.4f} > {tol}: {byz}"),
            (lambda v: (v["byz"]["weighted_average_diverged"]
                        and v["wa_gap"] > v["tol"]),
             "weighted_average was expected to diverge under attack: {byz}"),
        ),
        "ok": ("byzantine gate ok: clean={clean:.4f} "
               "median_gap={median_gap:.4f} trimmed_gap={trimmed_gap:.4f} "
               "weighted_average_gap={wa_gap:.4f}"),
    },
    {
        "name": "arms_race",
        "values": _arms_race_values,
        "checks": (
            (lambda v: v["krum_gap"] <= v["byz"]["tolerance"],
             "multi_krum drifted {krum_gap:.4f} > {byz[tolerance]}: {ar}"),
            (lambda v: v["ar"]["detector_precision"] >= 0.8,
             "detector precision: {ar}"),
            (lambda v: v["ar"]["detector_recall"] >= 0.8,
             "detector recall: {ar}"),
            (lambda v: v["ar"]["reputation_recovered"] >= 0.5,
             "reputation_weighted recovered too little of the wa gap: {ar}"),
            (lambda v: v["ar"]["adaptive_gap"] >= 0.05,
             "adaptive attacker no longer beats the oblivious one: {ar}"),
            (lambda v: v["ar"]["pass"],
             "arms_race bench reported failure: {ar}"),
        ),
        "ok": ("arms-race gate ok: krum_gap={krum_gap:.4f} "
               "P={ar[detector_precision]:.2f} R={ar[detector_recall]:.2f} "
               "recovered={ar[reputation_recovered]:.3f} "
               "adaptive_gap={ar[adaptive_gap]:.4f}"),
    },
    {
        "name": "hundred_k",
        "values": _hundred_k_values,
        "checks": (
            (lambda v: v["hk"]["events_per_sec"] > 0,
             "hundred_k round did not run: {hk}"),
            (lambda v: v["hk"]["pass"],
             "hundred_k flat-RSS gate failed: {hk}"),
        ),
        "ok": ("hundred_k gate ok: events/s={hk[events_per_sec]:.0f} "
               "construct_s={hk[construct_s]:.3f} "
               "rss_delta_mb={hk[delta_mb]:.1f}"),
    },
)


def run_gate(gate, bench):
    """The failure message of the gate's first failing check, or None
    (after printing the gate's ok line) when every check holds."""
    values = gate["values"](bench)
    for holds, message in gate["checks"]:
        if not holds(values):
            return message.format(**values)
    print(gate["ok"].format(**values))
    return None


def run_gates(path):
    try:
        with open(path) as f:
            bench = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_gate: FAIL - cannot read {path}: {e}")
        return 1
    failed = False
    for gate in GATES:
        try:
            error = run_gate(gate, bench)
        except KeyError as e:
            error = f"{path} has no {e} for the {gate['name']} gate"
        if error is not None:
            print(f"perf_gate: FAIL - {gate['name']}: {error}")
            failed = True
    return 1 if failed else 0


# A BENCH_sim.json excerpt every gate passes, and per gate one edit
# that must make it fail.
PASSING_FIXTURE = {
    "byzantine": {
        "tolerance": 0.05, "clean_auc": 0.80,
        "weighted_average_auc": 0.50, "weighted_average_diverged": True,
        "coordinate_median_auc": 0.79, "trimmed_mean_auc": 0.78,
    },
    "arms_race": {
        "multi_krum_auc": 0.81, "detector_precision": 1.0,
        "detector_recall": 1.0, "reputation_recovered": 0.96,
        "adaptive_gap": 0.10, "pass": True,
    },
    "hundred_k": {
        "events_per_sec": 1.0e6, "construct_s": 0.5, "delta_mb": 1.0,
        "pass": True,
    },
}
FAILING_EDITS = {
    "byzantine": ("byzantine", "trimmed_mean_auc", 0.70),
    "arms_race": ("arms_race", "detector_recall", 0.5),
    "hundred_k": ("hundred_k", "pass", False),
}


# A BENCH_kernels.json excerpt, and the factors by which the current
# run's layer timings may (within the 20% band) and may not (beyond it)
# exceed it.
LAYER_ROWS_FIXTURE = {
    "conv_layers": [
        {"name": "flnet_output_conv", "direct_ms": 1.0},
        {"name": "routenet_output_conv", "direct_ms": 0.4},
    ],
    "conv_backward": [
        {"name": "routenet_conv2", "fwd_ms": 4.0, "bwd_ms": 9.0},
        {"name": "routenet_deconv", "fwd_ms": 0.5, "bwd_ms": 0.8},
    ],
}
LAYER_ROWS_PASSING_FACTOR = 1.15
LAYER_ROWS_FAILING_FACTOR = 1.3
# (section, gated metric) pairs of the trajectory gate's layer rows.
LAYER_ROWS = (("conv_layers", "direct_ms"), ("conv_backward", "bwd_ms"))


def scaled_layer_rows(section, metric, factor):
    bench = copy.deepcopy(LAYER_ROWS_FIXTURE)
    for row in bench[section]:
        row[metric] *= factor
    return bench


def self_test():
    errors = []
    for section, metric in LAYER_ROWS:
        passing = scaled_layer_rows(section, metric, LAYER_ROWS_PASSING_FACTOR)
        if any(layer_row_errors(passing, LAYER_ROWS_FIXTURE)):
            errors.append(f"{section}: {LAYER_ROWS_PASSING_FACTOR}x {metric} "
                          "failed the trajectory check")
        failing = scaled_layer_rows(section, metric, LAYER_ROWS_FAILING_FACTOR)
        if sum(e is not None for e in
               layer_row_errors(failing, LAYER_ROWS_FIXTURE)) != len(
                   LAYER_ROWS_FIXTURE[section]):
            errors.append(f"{section}: {LAYER_ROWS_FAILING_FACTOR}x {metric} "
                          "passed the trajectory check")
    for gate in GATES:
        name = gate["name"]
        if run_gate(gate, PASSING_FIXTURE) is not None:
            errors.append(f"{name}: failed its passing fixture")
        failing = copy.deepcopy(PASSING_FIXTURE)
        block, key, value = FAILING_EDITS[name]
        failing[block][key] = value
        if run_gate(gate, failing) is None:
            errors.append(f"{name}: passed its failing fixture "
                          f"({block}.{key} = {value})")
    for e in errors:
        print(f"perf_gate self-test: FAIL - {e}")
    if not errors:
        rows = sum(len(LAYER_ROWS_FIXTURE[s]) for s, _ in LAYER_ROWS)
        print(f"perf_gate self-test: ok ({len(GATES)} gates, "
              f"{rows} layer rows)")
    return 1 if errors else 0


# --- perf-trajectory gate ----------------------------------------------

API = "https://api.github.com"
ARTIFACT_NAME = "bench-trajectory"
TOLERANCE = 0.20  # fail beyond +/-20%


def skip(message):
    print(f"perf_gate: SKIP - {message}")
    sys.exit(0)


def api_get(url, token, raw=False):
    request = urllib.request.Request(url)
    request.add_header("Authorization", f"Bearer {token}")
    request.add_header("X-GitHub-Api-Version", "2022-11-28")
    with urllib.request.urlopen(request, timeout=60) as response:
        body = response.read()
    return body if raw else json.loads(body)


def previous_artifact_files(token, repo, workflow, branch):
    """BENCH_*.json contents from the newest successful `branch` run of
    `workflow` that uploaded the trajectory artifact, or None."""
    runs = api_get(
        f"{API}/repos/{repo}/actions/workflows/{workflow}/runs"
        f"?branch={branch}&status=success&per_page=10",
        token,
    )
    for run in runs.get("workflow_runs", []):
        artifacts = api_get(run["artifacts_url"], token)
        for artifact in artifacts.get("artifacts", []):
            if artifact["name"] != ARTIFACT_NAME or artifact["expired"]:
                continue
            blob = api_get(artifact["archive_download_url"], token, raw=True)
            archive = zipfile.ZipFile(io.BytesIO(blob))
            files = {}
            for name in archive.namelist():
                if name.endswith(".json"):
                    files[os.path.basename(name)] = json.loads(
                        archive.read(name)
                    )
            if files:
                print(f"perf_gate: baseline = run {run['id']} "
                      f"({run.get('head_sha', '?')[:12]})")
                return files
    return None


def check(label, current, previous, lower_is_better=False):
    """Returns an error string on regression, None when within band."""
    if previous is None or current is None:
        return None  # metric absent on one side: schema drift, not perf
    if previous <= 0:
        return None
    ratio = current / previous
    direction = "<=" if lower_is_better else ">="
    bound = 1.0 + TOLERANCE if lower_is_better else 1.0 - TOLERANCE
    ok = ratio <= bound if lower_is_better else ratio >= bound
    status = "ok" if ok else "REGRESSION"
    print(f"perf_gate: {label}: {current:.4g} vs {previous:.4g} "
          f"(ratio {ratio:.3f}, need {direction} {bound:.2f}) {status}")
    if not ok:
        return (f"{label} regressed: {current:.4g} vs baseline "
                f"{previous:.4g} (ratio {ratio:.3f})")
    return None


def codec_rows(bench):
    return {row["name"]: row for row in (bench or {}).get("codecs", [])}


def shape_rows(bench):
    return {row["name"]: row for row in (bench or {}).get("shapes", [])}


def layer_row_errors(kernels_now, kernels_prev):
    """One check() result per layer row both runs timed, lower is
    better: conv_layers' direct_ms (the head's forward + backward) and
    conv_backward's bwd_ms (a layer's backward inside one pool task)."""
    errors = []
    for section, metric in LAYER_ROWS:
        def rows(bench):
            return {row["name"]: row
                    for row in (bench or {}).get(section, [])}
        now_rows, prev_rows = rows(kernels_now), rows(kernels_prev)
        errors.extend(check(f"kernels.{section}.{name}.{metric}",
                            now_rows[name].get(metric),
                            prev_rows[name].get(metric), lower_is_better=True)
                      for name in sorted(set(now_rows) & set(prev_rows)))
    return errors


def trajectory():
    token = os.environ.get("GITHUB_TOKEN", "")
    repo = os.environ.get("GITHUB_REPOSITORY", "")
    workflow = os.environ.get("PERF_GATE_WORKFLOW", "ci.yml")
    branch = os.environ.get("PERF_GATE_BRANCH", "main")
    if not token or not repo:
        skip("GITHUB_TOKEN / GITHUB_REPOSITORY not set")

    try:
        with open("BENCH_sim.json") as f:
            sim_now = json.load(f)
        with open("BENCH_comm.json") as f:
            comm_now = json.load(f)
        with open("BENCH_kernels.json") as f:
            kernels_now = json.load(f)
    except OSError as e:
        print(f"perf_gate: FAIL - current bench output missing: {e}")
        sys.exit(1)

    try:
        baseline = previous_artifact_files(token, repo, workflow, branch)
    except (urllib.error.URLError, json.JSONDecodeError,
            zipfile.BadZipFile, KeyError) as e:
        skip(f"could not fetch previous artifact ({e})")
    if baseline is None:
        skip("no previous successful run with a bench-trajectory artifact")

    sim_prev = baseline.get("BENCH_sim.json", {})
    comm_prev = baseline.get("BENCH_comm.json", {})
    kernels_prev = baseline.get("BENCH_kernels.json", {})

    errors = []
    errors.append(check(
        "sim.events_per_sec",
        sim_now.get("events_per_sec"), sim_prev.get("events_per_sec")))
    errors.append(check(
        "sim.thousand_clients.round_host_ms",
        sim_now.get("thousand_clients", {}).get("round_host_ms"),
        sim_prev.get("thousand_clients", {}).get("round_host_ms"),
        lower_is_better=True))
    # Arms-race quality trajectory: detection and robust-rule AUC are
    # quality numbers, not timings, but a silent slide still reads as a
    # regression. check() skips cleanly when the baseline artifact
    # predates the arms_race block.
    ar_now = sim_now.get("arms_race", {})
    ar_prev = sim_prev.get("arms_race", {})
    for metric in ("detector_precision", "detector_recall",
                   "multi_krum_auc", "reputation_auc"):
        errors.append(check(
            f"sim.arms_race.{metric}",
            ar_now.get(metric), ar_prev.get(metric)))
    # K = 100k streaming-federation throughput (part 7); skips cleanly
    # when the baseline artifact predates the hundred_k block.
    errors.append(check(
        "sim.hundred_k.events_per_sec",
        sim_now.get("hundred_k", {}).get("events_per_sec"),
        sim_prev.get("hundred_k", {}).get("events_per_sec")))
    now_rows, prev_rows = codec_rows(comm_now), codec_rows(comm_prev)
    for name in sorted(set(now_rows) & set(prev_rows)):
        for metric in ("encode_mb_per_s", "decode_mb_per_s"):
            errors.append(check(
                f"comm.{name}.{metric}",
                now_rows[name].get(metric), prev_rows[name].get(metric)))
    now_shapes = shape_rows(kernels_now)
    prev_shapes = shape_rows(kernels_prev)
    for name in sorted(set(now_shapes) & set(prev_shapes)):
        errors.append(check(
            f"kernels.{name}.auto_gflops",
            now_shapes[name].get("auto_gflops"),
            prev_shapes[name].get("auto_gflops")))
    errors.append(check(
        "kernels.plan_cache.hit_rate",
        kernels_now.get("plan_cache", {}).get("hit_rate"),
        kernels_prev.get("plan_cache", {}).get("hit_rate")))
    errors.extend(layer_row_errors(kernels_now, kernels_prev))

    errors = [e for e in errors if e is not None]
    if errors:
        for e in errors:
            print(f"perf_gate: FAIL - {e}")
        sys.exit(1)
    print("perf_gate: all metrics within the 20% band")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--gates", metavar="BENCH_SIM_JSON",
                        help="run the threshold gates over this file")
    parser.add_argument("--self-test", action="store_true",
                        help="check every threshold gate on its fixtures")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.gates:
        return run_gates(args.gates)
    trajectory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
