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

from operator import is_
from typing import List, NamedTuple, Optional

from repro.containers.container import Container
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel, match_level
from repro.containers.volumes import Volume, VolumeKind, VolumeStore

# Aliases: an enum member read off its class costs a descriptor call.
_NO_MATCH = MatchLevel.NO_MATCH
_USER_DATA = VolumeKind.USER_DATA


class SecurityViolation(RuntimeError):
    """A user-data volume would be exposed to a foreign function."""


class CleanResult(NamedTuple):
    """Outcome of a repack: what was unmounted/mounted and the match level."""

    match: MatchLevel
    unmounted: List[Volume]
    mounted: List[Volume]


#: Builds a :class:`CleanResult` from one tuple without the keyword
#: constructor (one C call per repack).
_new_result = tuple.__new__


class ContainerCleaner:
    """Repack warm containers for reuse via volume mount/unmount."""

    def __init__(self, store: VolumeStore) -> None:
        self._store = store
        self.repack_count = 0

    @property
    def store(self) -> VolumeStore:
        return self._store

    def initial_mount(self, container: Container, function_name: str) -> List[Volume]:
        """Mount the volume set for a freshly created (cold-start) container.

        Returns the container's own ``mounted_volumes`` list, not a copy.
        """
        store = self._store
        needed, _ = store.plan(container.image, function_name)
        container.mounted_volumes = mounted = list(needed)
        store.mount_count += len(mounted)
        return mounted

    def repack(
        self,
        container: Container,
        new_image: FunctionImage,
        function_name: str,
        match: Optional[MatchLevel] = None,
    ) -> CleanResult:
        """Repack ``container`` so ``function_name`` can run ``new_image``.

        ``match`` is ``new_image``'s Table-I level against the container's
        current image when the caller has derived it already (the
        lifecycle's ``start`` has); ``None`` derives it here.

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
        if match is None:
            match = match_level(new_image, container.image)
        if match is _NO_MATCH:
            raise SecurityViolation(
                f"container {container.container_id} has a different OS level; "
                "repacking cannot change the writable layer"
            )
        store = self._store
        needed, needed_ids = store.plan(new_image, function_name)
        current = container.mounted_volumes
        unmounted: List[Volume] = []
        mounted: List[Volume] = []
        # Same-function reuse (the container holds exactly the plan) keeps
        # every volume in place.  The store deduplicates volumes, so an
        # identity test is an equality test.
        if not (len(current) == len(needed)
                and all(map(is_, current, needed))):
            # Plain loops, not comprehensions: no call per repack.
            kept = []
            held = set()  # ids of the volumes the container holds
            for v in current:
                held.add(v.volume_id)
                (kept if v.volume_id in needed_ids else unmounted).append(v)
            for v in needed:
                if v.volume_id not in held:
                    mounted.append(v)
            container.mounted_volumes = kept + mounted
            store.unmount_count += len(unmounted)
            store.mount_count += len(mounted)
        container.image = new_image
        self.repack_count += 1
        # Post-condition: only the new function's user data is mounted.
        for vol in container.mounted_volumes:
            if vol.kind is _USER_DATA and vol.owner_function != function_name:
                raise SecurityViolation(
                    f"user-data volume of {vol.owner_function!r} still mounted "
                    f"while repacking for {function_name!r}"
                )
        return _new_result(CleanResult, (match, unmounted, mounted))
