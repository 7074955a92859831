#!/usr/bin/env python
"""Nightly chaos soak: seeded random faults against live trees.

Every combination of recovery policy (fail-fast / degrade / repair)
and runtime (tcp / process / colocated) gets a soak: waves flow
continuously while a seeded :class:`repro.faultinject.FaultSchedule`
fires node kills, link cuts and (thread runtimes, degrade and repair)
malformed control packets from a back-end at random points in the
first half of the run.  One seed reproduces one fault trace exactly, so a nightly
failure replays locally with the seed from the log.

The invariants are the fault-tolerance layer's contract:

* **No torn waves** — every aggregate the front-end releases is an
  exact integer sum in ``[0, n]``: a lost contribution shrinks a
  wave, but nothing is ever double-counted.
* **fail-fast** surfaces a :class:`NetworkError` promptly after the
  first kill instead of limping along.  Its stream carries no data
  until the kill has fired, so the death lands under a stream every
  node still holds as an announced spec.
* **degrade** keeps completing waves over the survivors and never
  errors, and once the schedule has drained the next wave sums to
  ``n`` minus every rank the membership log names lost, plus every
  rank it names gained: a loss the log never names fails the soak.
* **One log** — in every soak the epochs of ``net.recovery_events()``
  strictly increase: the front-end stamps one tree epoch per change.
* **repair** returns to full-membership waves once the schedule has
  drained — orphans re-homed, routing and stream membership rebuilt.

``--churn`` additionally runs the full-size elastic-membership
acceptance: 16 back-ends join and 16 leave a live 64-leaf tree while
waves flow, every observed sum required to match a membership the
stream actually held (never a double-count, never a torn epoch).

Usage (nightly CI runs all nine policy x runtime combos plus churn)::

    PYTHONPATH=src python tools/chaos_soak.py --duration 60 --churn
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import (  # noqa: E402
    DEGRADE,
    FAIL_FAST,
    REPAIR,
    Network,
    NetworkError,
)
from repro.faultinject import (  # noqa: E402
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)
from repro.filters import TFILTER_SUM  # noqa: E402
from repro.topology import balanced_tree  # noqa: E402

POLICIES = {"fail_fast": FAIL_FAST, "degrade": DEGRADE, "repair": REPAIR}
RUNTIMES = ("tcp", "process", "colocated")


def _drive_wave(net, stream, timeout=2.0):
    """Broadcast one wave, reply 1 from every pollable back-end, and
    return the aggregated sum."""
    stream.send("%d", 0)
    deadline = time.monotonic() + timeout
    replied = set()
    while time.monotonic() < deadline:
        for rank, be in net.backends.items():
            if rank in replied or be.shut_down:
                continue
            try:
                got = be.poll()
            except Exception:
                replied.add(rank)
                continue
            if got is None:
                continue
            _, bstream = got
            try:
                bstream.send("%d", 1)
            except Exception:
                pass
            replied.add(rank)
        try:
            return stream.recv(timeout=0.02).values[0]
        except TimeoutError:
            continue
    raise TimeoutError("wave did not complete")


def _schedule(net, inj, policy_name, runtime, seed, horizon):
    """A seeded fault plan appropriate to the runtime.

    Process trees have no in-process comm nodes to address by label, so
    their plan draws SIGKILL targets from the spawned-process table with
    the same seeded no-replacement discipline FaultSchedule.random uses.
    """
    n_faults = 2 if policy_name == "repair" else 1
    if runtime == "process":
        rng = random.Random(seed)
        idxs = list(range(len(net._procs)))
        events = []
        for _ in range(min(n_faults, len(idxs))):
            i = idxs.pop(rng.randrange(len(idxs)))
            events.append(
                FaultEvent(rng.uniform(0.0, horizon), "kill_process", (i,))
            )
        events.sort(key=lambda e: e.at)
        return FaultSchedule(inj, events)
    actions = (
        ("kill_commnode",)
        if policy_name == "fail_fast"
        else ("kill_commnode", "sever_link", "send_malformed")
    )
    return FaultSchedule.random(
        inj, seed=seed, n_faults=n_faults, horizon=horizon, actions=actions
    )


def _log_accounts_for_the_next_wave(net, stream, n):
    """Failures unless the next completed wave sums to what the
    membership log says is left of the *n* ranks."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            total = _drive_wave(net, stream)
        except TimeoutError:
            continue
        log = net.recovery_events()
        want = n - sum(len(e.lost) for e in log) + sum(len(e.gained) for e in log)
        if total != want:
            return [f"wave sums to {total}; the membership log accounts for {want}"]
        return []
    return ["no wave completed after the schedule drained"]


def soak(policy_name: str, runtime: str, seed: int, duration: float):
    """One soak; returns (waves_completed, fired_events, failures)."""
    kwargs = {"colocate": True} if runtime == "colocated" else {"transport": runtime}
    net = Network(
        balanced_tree(2, 3),
        policy=POLICIES[policy_name],
        heartbeat_interval=0.05,
        **kwargs,
    )
    n = len(net.backends)
    waves, down, failures = 0, False, []
    try:
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        sched = _schedule(
            net, FaultInjector(net), policy_name, runtime, seed, duration / 2
        )
        sched.arm()
        t0 = time.monotonic()
        if policy_name == "fail_fast":
            while not sched.fired and time.monotonic() - t0 < duration:
                sched.poll()
                time.sleep(0.01)
        while time.monotonic() - t0 < duration:
            sched.poll()
            try:
                total = _drive_wave(net, stream)
            except TimeoutError:
                continue  # mid-recovery; the next wave retries
            except NetworkError:
                down = True
                break
            waves += 1
            if not (isinstance(total, int) and 0 <= total <= n):
                failures.append(f"torn wave: sum {total!r} outside [0, {n}]")
                break

        if policy_name == "fail_fast":
            if sched.fired and not down:
                grace = time.monotonic() + 10.0
                while time.monotonic() < grace and not down:
                    try:
                        _drive_wave(net, stream)
                    except TimeoutError:
                        pass
                    except NetworkError:
                        down = True
                if not down:
                    failures.append(
                        "fail-fast never surfaced a NetworkError after the kill"
                    )
        elif down:
            failures.append(
                f"{policy_name} surfaced a NetworkError during the soak"
            )
        elif policy_name == "degrade" and not failures:
            while not sched.done:
                sched.poll()
                time.sleep(0.01)
            failures += _log_accounts_for_the_next_wave(net, stream, n)
        elif policy_name == "repair" and not failures:
            grace = time.monotonic() + 30.0
            full = False
            while time.monotonic() < grace:
                try:
                    if _drive_wave(net, stream) == n:
                        full = True
                        break
                except TimeoutError:
                    continue
                except NetworkError:
                    failures.append("repair surfaced a NetworkError post-schedule")
                    break
            if not full and not failures:
                failures.append(f"repair never returned to full {n}-rank waves")
        if waves == 0 and not down:
            failures.append("no wave ever completed")
        epochs = [e.epoch for e in net.recovery_events()]
        if any(a >= b for a, b in zip(epochs, epochs[1:])):
            failures.append(f"membership epochs not strictly increasing: {epochs}")
    finally:
        net.shutdown()
    return waves, sched.fired, failures


def churn_soak(seed: int, n_churn: int = 16):
    """The full-size elastic-membership acceptance run.

    16 joins and 16 leaves interleave on a live 64-leaf tcp tree under
    ``repair`` while waves flow.  A wave may complete *short* while a
    departure's unanswered backlog drains (the leaver's pending waves
    release without it rather than deadlocking), so the torn-epoch
    check is one-sided: no aggregate may ever *exceed* the largest
    membership it could belong to (a double-counted contribution), and
    after every transition the waves must converge to the exact new
    membership sum.
    """
    rng = random.Random(seed)
    net = Network(balanced_tree(4, 3), transport="tcp", policy=REPAIR)
    failures = []
    transitions = 0
    try:
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        size = len(net.backends)

        def waves_until(want, ceiling, timeout=30.0):
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                try:
                    total = _drive_wave(net, stream)
                except TimeoutError:
                    continue
                if total > ceiling:
                    failures.append(
                        f"torn wave: sum {total} exceeds every membership "
                        f"in flight (max {ceiling}) — a double-counted "
                        "contribution"
                    )
                    return False
                if total == want:
                    return True
            failures.append(f"waves never reached membership sum {want}")
            return False

        if not waves_until(size, size):
            return transitions, failures
        for _ in range(n_churn):
            net.attach_backend()
            size += 1
            if not waves_until(size, size):
                return transitions, failures
            transitions += 1
            live = [r for r, be in net.backends.items() if not be.shut_down]
            net.backends[rng.choice(live)].leave()
            size -= 1
            if not waves_until(size, size + 1):
                return transitions, failures
            transitions += 1
        recovery = net.stats()["recovery"]
        if recovery["members_joined"] < n_churn:
            failures.append(
                f"only {recovery['members_joined']}/{n_churn} joins counted"
            )
        if recovery["members_left"] < n_churn:
            failures.append(
                f"only {recovery['members_left']}/{n_churn} leaves counted"
            )
        if recovery["nodes_failed"] != 0:
            failures.append(
                "clean churn was failure-accounted: "
                f"nodes_failed={recovery['nodes_failed']}"
            )
    finally:
        net.shutdown()
    return transitions, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--duration", type=float, default=60.0, help="seconds per soak combo"
    )
    parser.add_argument(
        "--policies", default=",".join(POLICIES), help="comma-separated subset"
    )
    parser.add_argument(
        "--runtimes", default=",".join(RUNTIMES), help="comma-separated subset"
    )
    parser.add_argument(
        "--churn",
        action="store_true",
        help="also run the 64-leaf 16-join/16-leave churn acceptance",
    )
    args = parser.parse_args(argv)

    policies = [p for p in args.policies.split(",") if p]
    runtimes = [r for r in args.runtimes.split(",") if r]
    unknown = [p for p in policies if p not in POLICIES] + [
        r for r in runtimes if r not in RUNTIMES
    ]
    if unknown:
        parser.error(f"unknown policy/runtime: {', '.join(unknown)}")

    failed = False
    combo_seed = args.seed
    for policy_name in policies:
        for runtime in runtimes:
            combo_seed += 13
            waves, fired, failures = soak(
                policy_name, runtime, combo_seed, args.duration
            )
            trace = "; ".join(f"{e.action}{e.args}@{e.at:.2f}s" for e in fired)
            status = "ok" if not failures else "FAILED"
            print(
                f"{policy_name:<10} {runtime:<10} seed={combo_seed:<4} "
                f"{waves:>5} waves  [{trace}]  {status}"
            )
            for failure in failures:
                print(f"    {failure}", file=sys.stderr)
                failed = True

    if args.churn:
        transitions, failures = churn_soak(args.seed)
        status = "ok" if not failures else "FAILED"
        print(
            f"{'churn':<10} {'tcp':<10} seed={args.seed:<4} "
            f"{transitions:>5} transitions  [16 joins, 16 leaves]  {status}"
        )
        for failure in failures:
            print(f"    {failure}", file=sys.stderr)
            failed = True

    if failed:
        print("FAIL: chaos soak invariants violated", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
