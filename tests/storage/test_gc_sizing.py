"""Container sizes come from the store's resident directory.

``ContainerStore.data_bytes`` answers from the always-resident ``_meta``
directory, so measuring the log — ``log_utilization`` and the collector's
victim selection — never faults a spilled container back into RAM.
"""

import numpy as np
import pytest

from repro.storage.disk import DiskModel
from repro.storage.gc import GarbageCollector
from repro.storage.recipe import BackupRecipe
from repro.storage.store import ContainerStore, StoreConfig

from tests.conftest import TEST_PROFILE


def spilling_store(tmp_path=None):
    store = ContainerStore(
        DiskModel(profile=TEST_PROFILE),
        config=StoreConfig(
            container_bytes=1000,
            seal_seeks=0,
            resident_containers=2,
            spill_dir=None if tmp_path is None else str(tmp_path),
        ),
    )
    # 12 containers of three chunks; sizes vary so containers differ
    for fp in range(36):
        store.append(fp + 1, 200 + 10 * (fp % 7))
    store.flush()
    return store


def recipe_of(store, cids):
    fps, sizes, containers = [], [], []
    for cid in cids:
        sealed = store.get(cid)
        fps += sealed.fingerprints.tolist()
        sizes += sealed.sizes.tolist()
        containers += [cid] * sealed.n_chunks
    return BackupRecipe(
        generation=0,
        fingerprints=np.array(fps, dtype=np.uint64),
        sizes=np.array(sizes, dtype=np.uint32),
        containers=np.array(containers, dtype=np.int64),
    )


@pytest.mark.parametrize("on_disk", [False, True])
def test_data_bytes_matches_the_container_resident_or_spilled(tmp_path, on_disk):
    store = spilling_store(tmp_path if on_disk else None)
    resident = set(store._resident)
    cids = store.cids()
    assert len(cids) > len(resident) > 0  # both kinds are present
    for cid in cids:
        # read the accessor first: get() would fault the container in
        expected_resident = cid in store._resident
        size = store.data_bytes(cid)
        assert (cid in store._resident) == expected_resident
        assert size == store.get(cid).data_bytes
    assert any(cid not in resident for cid in cids)


def test_data_bytes_raises_for_unknown_and_open_containers():
    store = spilling_store()
    with pytest.raises(KeyError):
        store.data_bytes(10_000)
    store.append(99_999, 100)  # opens a container without sealing it
    open_cid = store.open_container.cid
    with pytest.raises(KeyError):
        store.data_bytes(open_cid)
    removed = store.cids()[0]
    store.remove(removed)
    with pytest.raises(KeyError):
        store.data_bytes(removed)


def test_log_utilization_never_faults():
    store = spilling_store()
    gc = GarbageCollector(store)
    retained = [recipe_of(store, store.cids()[::3])]
    faults = store.spill_stats.faults
    util = gc.log_utilization(retained)
    assert 0 < util < 1
    assert gc.live_bytes_per_container(retained)
    assert store.spill_stats.faults == faults


def test_victim_selection_never_faults():
    """A pass that selects no victims reads no container at all."""
    store = spilling_store()
    gc = GarbageCollector(store)
    retained = [recipe_of(store, store.cids())]  # everything live
    faults = store.spill_stats.faults
    report, _ = gc.collect(retained, min_utilization=0.5)
    assert report.containers_collected == 0
    assert store.spill_stats.faults == faults


def test_a_pass_faults_only_its_victims():
    store = spilling_store()
    gc = GarbageCollector(store)
    cids = store.cids()
    retained = [recipe_of(store, cids[: len(cids) // 2])]
    faults = store.spill_stats.faults
    report, _ = gc.collect(retained, min_utilization=0.5)
    victims = set(cids[len(cids) // 2:])
    assert report.containers_collected == len(victims)
    # the sweep reads each victim once; nothing else is faulted in
    assert 0 < store.spill_stats.faults - faults <= len(victims)
