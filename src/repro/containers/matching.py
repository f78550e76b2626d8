"""Table-I multi-level matching between a function and a warm container.

The matcher compares the three package levels *as wholes*, in order, and
stops at the first mismatch (the paper's pruning: if the OS differs, the
language/runtime comparisons are skipped because reusing such a container
would save almost nothing).

===========================================  =======================
Expression                                   Match level
===========================================  =======================
``F.L1 != C.L1``                             ``NO_MATCH`` (cold start)
``F.L1 == C.L1, F.L2 != C.L2``               ``L1``
``L1, L2 equal, F.L3 != C.L3``               ``L2``
all three equal                              ``L3`` (full match)
===========================================  =======================

The hot-path implementation (:func:`match_level`) compares the images'
interned per-level *fingerprints* (``FunctionImage.fingerprints``) -- three
integer comparisons instead of three frozenset comparisons.  Interning makes
this exact, not probabilistic: equal fingerprints are assigned iff the level
sets are equal.  The original frozenset implementation is kept as
:func:`match_level_sets`, the reference the property tests check the
fingerprint path against.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Tuple

from repro.containers.image import FunctionImage
from repro.packages.package import PackageLevel


class MatchLevel(enum.IntEnum):
    """How deeply a warm container matches a function invocation.

    Ordered: a numerically larger match level always implies a cheaper
    startup (more phases skipped).
    """

    NO_MATCH = 0
    L1 = 1
    L2 = 2
    L3 = 3

    @property
    def is_reusable(self) -> bool:
        """Whether the container may be reused at all."""
        return self is not MatchLevel.NO_MATCH


def match_level_sets(
    function_image: FunctionImage, container_image: FunctionImage
) -> MatchLevel:
    """Reference Table-I matcher: level-by-level frozenset comparison.

    Semantically identical to :func:`match_level`; kept as the reference
    the property tests validate the fingerprint fast path against.
    """
    if function_image.level_set(PackageLevel.OS) != container_image.level_set(
        PackageLevel.OS
    ):
        return MatchLevel.NO_MATCH
    if function_image.level_set(PackageLevel.LANGUAGE) != container_image.level_set(
        PackageLevel.LANGUAGE
    ):
        return MatchLevel.L1
    if function_image.level_set(PackageLevel.RUNTIME) != container_image.level_set(
        PackageLevel.RUNTIME
    ):
        return MatchLevel.L2
    return MatchLevel.L3


def match_level(
    function_image: FunctionImage,
    container_image: FunctionImage,
    _NO=MatchLevel.NO_MATCH,
    _L1=MatchLevel.L1,
    _L2=MatchLevel.L2,
    _L3=MatchLevel.L3,
) -> MatchLevel:
    """Compute the Table-I match level with level-by-level pruning.

    Compares the images' interned per-level fingerprints -- at most one
    pointer-identity check (full match: equal configurations share the
    same interned tuple object) and two integer comparisons, exact by
    construction of the intern table.  (The trailing defaults pre-bind the
    enum members; they are implementation detail, not part of the call
    signature.)
    """
    fa = function_image.fingerprints
    fb = container_image.fingerprints
    if fa is fb:
        return _L3
    if fa[0] != fb[0]:
        return _NO
    if fa[1] != fb[1]:
        return _L1
    # Tuples are interned, so distinct objects with equal L1 and L2
    # fingerprints necessarily differ at L3.
    return _L2


def best_match(
    function_image: FunctionImage,
    candidates: Iterable[Tuple[object, FunctionImage]],
) -> Tuple[Optional[object], MatchLevel]:
    """Find the candidate with the deepest match level.

    Parameters
    ----------
    function_image:
        The invoked function's image.
    candidates:
        Iterable of ``(handle, image)`` pairs; ``handle`` is opaque (e.g. a
        container id) and returned for the winner.

    Returns
    -------
    ``(handle, level)`` of the deepest match, or ``(None, NO_MATCH)`` when no
    candidate is reusable.  Ties keep the *first* candidate encountered, so
    callers control tie-breaking by ordering (e.g. most-recently-used first).
    """
    best_handle: Optional[object] = None
    best_level = MatchLevel.NO_MATCH
    for handle, image in candidates:
        level = match_level(function_image, image)
        if level > best_level:
            best_handle, best_level = handle, level
            if level is MatchLevel.L3:
                break  # cannot do better than a full match
    return best_handle, best_level
