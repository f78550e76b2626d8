"""Tests for the container cleaner (secure repacking)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.containers.cleaner import (
    CleanResult,
    ContainerCleaner,
    SecurityViolation,
)
from repro.containers.matching import MatchLevel, match_level
from repro.containers.volumes import VolumeKind, VolumeStore, volumes_for_image
from repro.workloads.functions import fstartbench_functions

from conftest import make_container, make_image


@pytest.fixture
def cleaner():
    return ContainerCleaner(VolumeStore())


class TestInitialMount:
    def test_mounts_all_volume_groups(self, cleaner):
        c = make_container(1)
        vols = cleaner.initial_mount(c, "f")
        assert c.mounted_volumes == vols
        assert {v.kind for v in vols} == {
            VolumeKind.LANGUAGE, VolumeKind.RUNTIME, VolumeKind.USER_DATA
        }

    def test_mount_counted(self, cleaner):
        cleaner.initial_mount(make_container(1), "f")
        assert cleaner.store.mount_count == 3


class TestRepack:
    def test_repack_same_stack_swaps_only_user_data(self, cleaner):
        c = make_container(1)
        cleaner.initial_mount(c, "f1")
        result = cleaner.repack(c, make_image("same"), "f2")
        assert result.match is MatchLevel.L3
        # Language and runtime volumes are identical content -> kept.
        assert [v.kind for v in result.unmounted] == [VolumeKind.USER_DATA]
        assert [v.kind for v in result.mounted] == [VolumeKind.USER_DATA]

    def test_repack_updates_image(self, cleaner):
        c = make_container(1)
        cleaner.initial_mount(c, "f1")
        new_image = make_image("new", runtime_names=("numpy",))
        cleaner.repack(c, new_image, "f2")
        assert c.image is new_image

    def test_repack_l2_swaps_runtime_volume(self, cleaner):
        c = make_container(1)  # flask runtime
        cleaner.initial_mount(c, "f1")
        result = cleaner.repack(c, make_image("n", runtime_names=("numpy",)),
                                "f2")
        assert result.match is MatchLevel.L2
        unmounted_kinds = {v.kind for v in result.unmounted}
        assert VolumeKind.RUNTIME in unmounted_kinds

    def test_repack_os_mismatch_is_security_violation(self, cleaner):
        c = make_container(1, image=make_image("a", os_name="alpine"))
        cleaner.initial_mount(c, "f1")
        with pytest.raises(SecurityViolation):
            cleaner.repack(c, make_image("d", os_name="debian"), "f2")

    def test_no_foreign_user_data_after_repack(self, cleaner):
        c = make_container(1)
        cleaner.initial_mount(c, "alice")
        cleaner.repack(c, make_image("x", runtime_names=("numpy",)), "bob")
        owners = [
            v.owner_function
            for v in c.mounted_volumes
            if v.kind is VolumeKind.USER_DATA
        ]
        assert owners == ["bob"]

    def test_repack_count(self, cleaner):
        c = make_container(1)
        cleaner.initial_mount(c, "f1")
        cleaner.repack(c, make_image("x"), "f2")
        cleaner.repack(c, make_image("y"), "f3")
        assert cleaner.repack_count == 2


# -- property: user-data isolation holds under arbitrary repack chains --------

functions = st.sampled_from(["alice", "bob", "carol", "dave"])
runtimes = st.sets(st.sampled_from(["flask", "numpy", "pandas"]), max_size=2)
langs = st.sampled_from(["python", "nodejs"])


@given(st.lists(st.tuples(functions, langs, runtimes), min_size=1,
                max_size=12))
def test_user_data_isolation_invariant(chain):
    """After any chain of repacks, only the current user's data is mounted."""
    cleaner = ContainerCleaner(VolumeStore())
    first_fn, first_lang, first_rts = chain[0]
    container = make_container(
        1, image=make_image("img0", lang_name=first_lang,
                            runtime_names=tuple(first_rts))
    )
    cleaner.initial_mount(container, first_fn)
    current = first_fn
    for i, (fn, lang, rts) in enumerate(chain[1:], start=1):
        new_image = make_image(f"img{i}", lang_name=lang,
                               runtime_names=tuple(rts))
        cleaner.repack(container, new_image, fn)
        current = fn
        for vol in container.mounted_volumes:
            if vol.kind is VolumeKind.USER_DATA:
                assert vol.owner_function == current


# -- the memoized volume plan == the per-call plan it replaced ----------------

FSTARTBENCH = fstartbench_functions()


class _PerCallCleaner:
    """The cleaner before the volume plan: it rebuilds the needed volume
    list with ``volumes_for_image`` on every mount and repack."""

    def __init__(self) -> None:
        self.store = VolumeStore()
        self.repack_count = 0

    def _needed(self, image, function_name):
        return volumes_for_image(self.store, image.language_packages,
                                 image.runtime_packages, function_name)

    def initial_mount(self, container, function_name):
        vols = self._needed(container.image, function_name)
        container.mounted_volumes = list(vols)
        self.store.record_mount(len(vols))
        return vols

    def repack(self, container, new_image, function_name):
        match = match_level(new_image, container.image)
        if match is MatchLevel.NO_MATCH:
            raise SecurityViolation("different OS level")
        needed = self._needed(new_image, function_name)
        needed_ids = {v.volume_id for v in needed}
        current = list(container.mounted_volumes)
        unmounted = [v for v in current if v.volume_id not in needed_ids]
        kept = [v for v in current if v.volume_id in needed_ids]
        kept_ids = {v.volume_id for v in kept}
        mounted = [v for v in needed if v.volume_id not in kept_ids]
        container.mounted_volumes = kept + mounted
        container.image = new_image
        self.store.record_unmount(len(unmounted))
        self.store.record_mount(len(mounted))
        self.repack_count += 1
        return CleanResult(match=match, unmounted=unmounted, mounted=mounted)


def _ids(volumes):
    return [v.volume_id for v in volumes]


_specs = st.integers(0, len(FSTARTBENCH) - 1)


@given(st.lists(st.tuples(st.integers(0, 2), _specs, _specs, st.booleans()),
                min_size=1, max_size=30))
def test_volume_plan_matches_per_call_plan(steps):
    """Random cold starts and repack chains over three containers sharing
    one store: the memoized plan mounts the same volume ids in the same
    order, reports the same unmounted / mounted lists and counts the same
    mounts, unmounts and repacks as the per-call plan.  A step repacks
    toward any FStartBench image for any function, so same-function
    reuse, function changes, zygote-style reuse of another function's
    image and OS mismatches all occur."""
    cleaner = ContainerCleaner(VolumeStore())
    reference = _PerCallCleaner()
    pairs = {}
    for slot, fn_index, image_index, cold in steps:
        function_name = FSTARTBENCH[fn_index].name
        image = FSTARTBENCH[image_index].image
        if cold or slot not in pairs:
            pairs[slot] = (make_container(slot, image=image),
                           make_container(slot, image=image))
            new, old = pairs[slot]
            assert _ids(cleaner.initial_mount(new, function_name)) == _ids(
                reference.initial_mount(old, function_name))
        else:
            new, old = pairs[slot]
            before = (_ids(new.mounted_volumes), new.image)
            try:
                expected = reference.repack(old, image, function_name)
            except SecurityViolation:
                with pytest.raises(SecurityViolation):
                    cleaner.repack(new, image, function_name)
                assert (_ids(new.mounted_volumes), new.image) == before
            else:
                got = cleaner.repack(new, image, function_name)
                assert got.match is expected.match
                assert _ids(got.unmounted) == _ids(expected.unmounted)
                assert _ids(got.mounted) == _ids(expected.mounted)
                assert new.image is old.image
        assert _ids(new.mounted_volumes) == _ids(old.mounted_volumes)
        assert cleaner.store.mount_count == reference.store.mount_count
        assert cleaner.store.unmount_count == reference.store.unmount_count
        assert cleaner.repack_count == reference.repack_count


def test_volume_plan_is_never_aliased():
    """Mutating one container's mounted list (which ``initial_mount``
    returns) changes neither the memoized plan nor another container."""
    store = VolumeStore()
    cleaner = ContainerCleaner(store)
    spec = FSTARTBENCH[0]
    plan_ids = _ids(store.plan(spec.image, spec.name)[0])
    a = make_container(1, image=spec.image)
    b = make_container(2, image=spec.image)
    returned = cleaner.initial_mount(a, spec.name)
    cleaner.initial_mount(b, spec.name)
    assert returned is a.mounted_volumes
    returned.pop()
    assert _ids(store.plan(spec.image, spec.name)[0]) == plan_ids
    assert _ids(b.mounted_volumes) == plan_ids

    # The fast path (b holds the plan) and the slow path (a lacks its
    # user-data volume) both leave each container on a list of its own.
    cleaner.repack(b, spec.image, spec.name)
    result = cleaner.repack(a, spec.image, spec.name)
    assert [v.kind for v in result.mounted] == [VolumeKind.USER_DATA]
    plan = store.plan(spec.image, spec.name)[0]
    assert a.mounted_volumes is not plan and b.mounted_volumes is not plan
    assert a.mounted_volumes is not b.mounted_volumes
    b.mounted_volumes.clear()
    assert _ids(a.mounted_volumes) == plan_ids
    assert _ids(store.plan(spec.image, spec.name)[0]) == plan_ids
