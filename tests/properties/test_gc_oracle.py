"""The array-at-a-time garbage collector against its chunk-by-chunk oracle.

Each example builds two identical stores from one random plan: a log of
containers (some already collected), retained recipes over it and an
optional redirect map. The product collector runs on one twin, the
oracle in ``tests/oracle/gc_oracle.py`` on the other, and every
observable result must be identical: live bytes, utilization, the
report, the remapped recipes, the store's stats and containers, the
journal, the index and the simulated clock.

The plans cover repeated fingerprints within a recipe, one fingerprint
at several containers, references to containers no longer in the store
(or never in it), empty recipes, reference sizes that disagree with the
stored copy, and redirect targets that are themselves victims (chains).
"""

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.chunking.fingerprint import splitmix64_array
from repro.dedup.base import EngineResources
from repro.index.full_index import ChunkLocation
from repro.storage.gc import GarbageCollector, remap_recipes
from repro.storage.recipe import BackupRecipe
from repro.storage.store import StoreConfig

from tests.conftest import TEST_PROFILE
from tests.oracle.gc_oracle import OracleGarbageCollector

CONTAINER_BYTES = 4096
SIZES = (512, 1024, 1536, 2048, 3000)
#: a cid no store ever allocates
UNKNOWN_CID = -1


@dataclass(frozen=True)
class Plan:
    fps: List[int]
    sizes: List[int]  # the stored size of each fingerprint
    writes: List[Tuple[int, bool]]  # (fingerprint index, flush after it)
    removed: List[int]
    recipes: List[List[Tuple[int, int, int]]]  # (fp, size, cid) per reference
    redirect: Optional[Dict[int, int]]
    min_utilization: float
    rewrite_redirected: bool
    journal: bool
    spill: bool


def build(plan: Plan):
    """A fresh store, index and retained recipe list from ``plan``."""
    config = StoreConfig(
        container_bytes=CONTAINER_BYTES,
        seal_seeks=1,
        journal=plan.journal,
        resident_containers=2 if plan.spill else None,
    )
    res = EngineResources.create(
        profile=TEST_PROFILE, expected_entries=1000, store_config=config
    )
    for i, (k, flush) in enumerate(plan.writes):
        cid = res.store.append(plan.fps[k], plan.sizes[k])
        res.index.update(plan.fps[k], ChunkLocation(cid, i))
        if flush:
            res.store.flush()
    res.store.flush()
    for cid in plan.removed:
        res.store.remove(cid)
    retained = [
        BackupRecipe(
            generation=g,
            fingerprints=np.array([r[0] for r in refs], dtype=np.uint64),
            sizes=np.array([r[1] for r in refs], dtype=np.uint32),
            containers=np.array([r[2] for r in refs], dtype=np.int64),
            label=f"r{g}",
        )
        for g, refs in enumerate(plan.recipes)
    ]
    return res, retained


@st.composite
def plans(draw) -> Plan:
    """Hypothesis picks the mode flags; a seeded generator lays out the
    log and the recipes, so large, well-mixed logs are as likely as small
    ones (hypothesis alone shrinks towards near-empty logs)."""
    redirect_mode = draw(st.sampled_from(["none", "empty", "map", "map"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_fps = int(rng.integers(1, 17))
    n_writes = int(rng.integers(1, 49))
    n_recipes = int(rng.integers(0, 5))

    # full-width fingerprints: about half of them above 2**63
    fps = [int(f) for f in splitmix64_array(rng.integers(0, 1 << 20, n_fps).astype(np.uint64))]
    fps = list(dict.fromkeys(fps))
    n_fps = len(fps)
    sizes = [int(s) for s in rng.choice(SIZES, n_fps)]
    writes = [(int(k), bool(rng.random() < 0.25)) for k in rng.integers(0, n_fps, n_writes)]

    # lay the log out once to learn which containers hold each fingerprint
    probe, _ = build(Plan(fps, sizes, writes, [], [], None, 0.5, False, False, False))
    holders: Dict[int, List[int]] = {}
    for cid in probe.store.cids():
        for fp in probe.store.get(cid).fingerprints.tolist():
            holders.setdefault(fp, []).append(cid)
    allocated = probe.store.cids()
    removed = sorted(int(c) for c in allocated if rng.random() < 0.2)
    anywhere = allocated + [UNKNOWN_CID]

    def pick(values):
        return values[int(rng.integers(len(values)))]

    def reference(k: int):
        fp = fps[k]
        # mostly a container that holds the chunk; sometimes any at all
        cid = pick(holders[fp]) if fp in holders and rng.random() < 0.8 else pick(anywhere)
        size = sizes[k] if rng.random() < 0.85 else pick(SIZES)
        return fp, size, cid

    recipes = []
    for _ in range(n_recipes):
        n = 0 if rng.random() < 0.15 else int(rng.integers(1, 24))
        recipes.append([reference(int(k)) for k in rng.integers(0, n_fps, n)])

    redirect: Optional[Dict[int, int]] = None
    if redirect_mode == "empty":
        redirect = {}
    elif redirect_mode == "map":
        # targets: a holder (often about to be compacted: a chain),
        # any container, a collected one, or one never allocated
        redirect = {
            fp: pick(holders.get(fp, []) + anywhere)
            for fp in fps
            if rng.random() < 0.6
        }
    return Plan(
        fps=fps,
        sizes=sizes,
        writes=writes,
        removed=removed,
        recipes=recipes,
        redirect=redirect,
        min_utilization=draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9, 1.0])),
        rewrite_redirected=draw(st.booleans()),
        journal=draw(st.booleans()),
        spill=draw(st.booleans()),
    )


def recipe_state(recipe: BackupRecipe):
    return (
        recipe.generation,
        recipe.label,
        recipe.fingerprints.tolist(),
        recipe.sizes.tolist(),
        recipe.containers.tolist(),
        recipe.containers.dtype,
    )


def journal_state(store):
    # the move map in insertion order: recovery iterates it as written
    return [
        {k: (list(v.items()) if k == "moved" else v) for k, v in record.items()}
        for record in store.journal_records()
    ]


def run(gc_class, plan: Plan):
    res, retained = build(plan)
    gc = gc_class(res.store, index=res.index)
    live = gc.live_bytes_per_container(retained)
    util = gc.log_utilization(retained)
    redirect = None if plan.redirect is None else dict(plan.redirect)
    report, remapped = gc.collect(
        retained,
        min_utilization=plan.min_utilization,
        redirect=redirect,
        rewrite_redirected=plan.rewrite_redirected,
    )
    return {
        "live": live,
        "utilization": util,
        "report": report,
        "remapped": [recipe_state(r) for r in remapped],
        "identity": [a is b for a, b in zip(remapped, retained)],
        "live_after": gc.live_bytes_per_container(remapped),
        "store_stats": res.store.stats,
        "containers": [
            (cid, res.store.get(cid).fingerprints.tolist(), res.store.get(cid).sizes.tolist())
            for cid in res.store.cids()
        ],
        "open": res.store.open_container,
        "journal": journal_state(res.store),
        "index": list(res.index._map.items()),
        "index_stats": res.index.stats,
        "clock": res.disk.clock.now,
        "disk_stats": res.disk.stats,
    }


class TestGCOracle:
    @given(plan=plans())
    @settings(max_examples=300, deadline=None)
    def test_array_collector_matches_the_oracle(self, plan):
        got = run(GarbageCollector, plan)
        want = run(OracleGarbageCollector, plan)
        for key in want:
            assert got[key] == want[key], key

    @given(plan=plans())
    @settings(max_examples=100, deadline=None)
    def test_journaled_move_map_replays_the_remap(self, plan):
        """Recovery's roll-forward: the journaled move map applied to the
        retained recipes by the array remap and by the oracle's chunk
        loop gives identical recipes."""
        res, retained = build(replace(plan, journal=True))
        gc = GarbageCollector(res.store, index=res.index)
        gc.collect(
            retained,
            min_utilization=plan.min_utilization,
            redirect=plan.redirect,
            rewrite_redirected=plan.rewrite_redirected,
        )
        moved = res.store.journal_records()[-1]["moved"]
        replayed = remap_recipes(retained, moved)
        oracle = OracleGarbageCollector(res.store)
        assert [recipe_state(r) for r in replayed] == [
            recipe_state(oracle._remap(r, moved)) for r in retained
        ]

    def test_chain_through_a_victim_redirect_target(self):
        """A redirect target that is itself compacted: the repointed
        reference must follow the target's chunk to its new container."""
        fps = [int(f) for f in splitmix64_array(np.arange(4, dtype=np.uint64))]
        plan = Plan(
            fps=fps,
            sizes=[1024] * 4,
            # container 0: fps 0,1 / container 1: fps 2,3,0 (the target)
            writes=[(0, False), (1, True), (2, False), (3, False), (0, True)],
            removed=[],
            recipes=[[(fps[0], 1024, 0), (fps[1], 1024, 0)]],
            redirect={fps[0]: 1},
            min_utilization=0.5,
            rewrite_redirected=True,
            journal=True,
            spill=False,
        )
        got = run(GarbageCollector, plan)
        assert got == run(OracleGarbageCollector, plan)
        assert got["report"].containers_collected == 2
        moved = dict(got["journal"][-1]["moved"])
        # (fp0, 0) -> 1 (redirect) -> the fresh copy of fp0 out of victim 1
        assert moved[(fps[0], 0)] == moved[(fps[0], 1)] >= 2
