"""Container cleaner: secure repacking of warm containers.

When a warm container is selected for reuse by a (possibly different)
function, the cleaner (paper Section III) performs two steps:

1. unmount the private package volumes and the previous function's user-data
   volume from the warm container, and
2. mount the package volumes required by the new function from the volume
   store, plus the new function's own private user-data volume.

Because the OS level lives on the container's writable layer (not a volume),
an OS mismatch cannot be fixed by the cleaner -- such containers are simply
not reusable (Table I ``NO_MATCH``).

The volume set a function needs on an image comes from the store's
memoized :meth:`~repro.containers.volumes.VolumeStore.plan`.  A repack
keeps the container's volumes that the plan names, in their current order,
and mounts the rest in plan order; when the container already holds
exactly the plan (same-function reuse), nothing is unmounted or mounted.

The cleaner is also the security boundary: it *guarantees* that no user-data
volume owned by function A is ever mounted while function B runs.  A
violation raises :class:`SecurityViolation`; the property-based tests assert
it never triggers under any schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.containers.container import Container
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel, match_level
from repro.containers.volumes import Volume, VolumeKind, VolumeStore


class SecurityViolation(RuntimeError):
    """A user-data volume would be exposed to a foreign function."""


@dataclass(frozen=True)
class CleanResult:
    """Outcome of a repack: what was unmounted/mounted and the match level."""

    match: MatchLevel
    unmounted: List[Volume]
    mounted: List[Volume]


class ContainerCleaner:
    """Repack warm containers for reuse via volume mount/unmount."""

    def __init__(self, store: VolumeStore) -> None:
        self._store = store
        self.repack_count = 0

    @property
    def store(self) -> VolumeStore:
        return self._store

    def initial_mount(self, container: Container, function_name: str) -> List[Volume]:
        """Mount the volume set for a freshly created (cold-start) container."""
        needed, _ = self._store.plan(container.image, function_name)
        container.mounted_volumes = list(needed)
        self._store.record_mount(len(needed))
        return list(needed)

    def repack(
        self,
        container: Container,
        new_image: FunctionImage,
        function_name: str,
    ) -> CleanResult:
        """Repack ``container`` so ``function_name`` can run ``new_image``.

        Volumes shared between the old and new configuration stay mounted
        (language/runtime volumes are content-addressed, so an identical
        level keeps its volume).  The previous user's data volume is always
        unmounted.

        Raises
        ------
        SecurityViolation
            If the container's current image does not OS-match the new image
            (the cleaner cannot replace the writable layer) -- callers must
            only repack reusable containers.
        """
        match = match_level(new_image, container.image)
        if match is MatchLevel.NO_MATCH:
            raise SecurityViolation(
                f"container {container.container_id} has a different OS level; "
                "repacking cannot change the writable layer"
            )
        needed, needed_ids = self._store.plan(new_image, function_name)
        current = container.mounted_volumes
        if current == needed:
            # Same-function reuse: every volume stays, in place.
            unmounted: List[Volume] = []
            mounted: List[Volume] = []
        else:
            unmounted = [v for v in current if v.volume_id not in needed_ids]
            kept = [v for v in current if v.volume_id in needed_ids]
            kept_ids = {v.volume_id for v in kept}
            mounted = [v for v in needed if v.volume_id not in kept_ids]
            container.mounted_volumes = kept + mounted
        container.image = new_image
        self._store.record_unmount(len(unmounted))
        self._store.record_mount(len(mounted))
        self.repack_count += 1

        self._verify_isolation(container, function_name)
        return CleanResult(match=match, unmounted=unmounted, mounted=mounted)

    @staticmethod
    def _verify_isolation(container: Container, function_name: str) -> None:
        """Post-condition: only the new function's user data is mounted."""
        for vol in container.mounted_volumes:
            if (
                vol.kind is VolumeKind.USER_DATA
                and vol.owner_function != function_name
            ):
                raise SecurityViolation(
                    f"user-data volume of {vol.owner_function!r} still mounted "
                    f"while repacking for {function_name!r}"
                )
