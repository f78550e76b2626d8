"""Volume model for the container cleaner.

The paper's cleaner (Section III) protects user data during inter-function
container sharing by persisting it in *volumes* that are unmounted before a
container is handed to a different function.  Volumes come in three kinds:
language-package volumes, runtime-package volumes and user-data volumes; OS
packages live on the container's writable layer and are not volumes.

An image's volumes never change, so :meth:`VolumeStore.plan` builds the
volume set of one ``(image, function)`` pair once (through
:func:`volumes_for_image`, which hands out volume ids in first-use order)
and serves it from a memo afterwards.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.containers.image import FunctionImage
from repro.packages.package import Package, PackageLevel


class VolumeKind(enum.Enum):
    """The three volume groups of the container cleaner."""

    LANGUAGE = "language"
    RUNTIME = "runtime"
    USER_DATA = "user_data"


@dataclass(frozen=True)
class Volume:
    """A mountable volume.

    Package volumes carry the packages they materialize; user-data volumes
    carry the owning function's name instead (their contents are opaque).
    """

    volume_id: int
    kind: VolumeKind
    packages: FrozenSet[Package] = frozenset()
    owner_function: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind is VolumeKind.USER_DATA:
            if self.owner_function is None:
                raise ValueError("user-data volumes must declare an owner")
            if self.packages:
                raise ValueError("user-data volumes carry no packages")
        else:
            if self.owner_function is not None:
                raise ValueError("package volumes have no owner")
            expected = (
                PackageLevel.LANGUAGE
                if self.kind is VolumeKind.LANGUAGE
                else PackageLevel.RUNTIME
            )
            for pkg in self.packages:
                if pkg.level is not expected:
                    raise ValueError(
                        f"volume kind {self.kind.value} cannot hold "
                        f"{pkg.level.label} package {pkg.key}"
                    )


class VolumeStore:
    """The "function database" of prepared package volumes.

    The cleaner mounts required package volumes from this store when
    repacking a warm container.  Volumes are deduplicated by content: asking
    twice for the same package set returns the same volume object.

    :meth:`plan` memoizes each ``(image, function)`` pair's volume set,
    keyed by the image's process-local fingerprints; a store lives in the
    one process whose lifecycle owns it and is never pickled.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._package_volumes: Dict[tuple, Volume] = {}
        self._user_volumes: Dict[str, Volume] = {}
        self._plans: Dict[tuple, Tuple[List[Volume], FrozenSet[int]]] = {}
        self.mount_count = 0
        self.unmount_count = 0

    def plan(
        self, image: FunctionImage, function_name: str
    ) -> Tuple[List[Volume], FrozenSet[int]]:
        """The volumes ``function_name`` needs on ``image``, and their ids.

        Built once per pair by :func:`volumes_for_image` (so volume ids
        are handed out in the same order as without the memo), then
        served from the memo.  The list is shared: callers copy it before
        giving it to a container, and never mutate it.
        """
        key = (image.fingerprints, function_name)
        plan = self._plans.get(key)
        if plan is None:
            needed = volumes_for_image(
                self, image.language_packages, image.runtime_packages,
                function_name,
            )
            plan = self._plans[key] = (
                needed, frozenset(v.volume_id for v in needed)
            )
        return plan

    def package_volume(
        self, kind: VolumeKind, packages: Iterable[Package]
    ) -> Volume:
        """Get-or-create the package volume for ``packages`` of ``kind``."""
        if kind is VolumeKind.USER_DATA:
            raise ValueError("use user_data_volume() for user-data volumes")
        frozen = frozenset(packages)
        cache_key = (kind, frozen)
        vol = self._package_volumes.get(cache_key)
        if vol is None:
            vol = Volume(next(self._ids), kind, packages=frozen)
            self._package_volumes[cache_key] = vol
        return vol

    def user_data_volume(self, function_name: str) -> Volume:
        """Get-or-create the private user-data volume of a function."""
        vol = self._user_volumes.get(function_name)
        if vol is None:
            vol = Volume(
                next(self._ids), VolumeKind.USER_DATA, owner_function=function_name
            )
            self._user_volumes[function_name] = vol
        return vol

    def record_mount(self, n: int = 1) -> None:
        """Count volume mount operation(s)."""
        self.mount_count += n

    def record_unmount(self, n: int = 1) -> None:
        """Count volume unmount operation(s)."""
        self.unmount_count += n


def volumes_for_image(
    store: VolumeStore,
    language_packages: Iterable[Package],
    runtime_packages: Iterable[Package],
    function_name: str,
) -> List[Volume]:
    """The full volume set a container needs to run ``function_name``."""
    vols: List[Volume] = []
    lang = frozenset(language_packages)
    rt = frozenset(runtime_packages)
    if lang:
        vols.append(store.package_volume(VolumeKind.LANGUAGE, lang))
    if rt:
        vols.append(store.package_volume(VolumeKind.RUNTIME, rt))
    vols.append(store.user_data_volume(function_name))
    return vols
