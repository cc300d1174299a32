"""DP-RAM frame allocator.

"Although it is excluded from the virtual memory mapping, the reserved
memory region is managed by the OS and divided into pages" (§3.2).
The allocator is the VIM's bookkeeping for those physical pages
(*frames*): which are free, which holds the parameter-passing page,
and which (object, virtual page) each data frame currently hosts.
"""

from __future__ import annotations

from repro.errors import VimError

#: Owner tag of the parameter-passing frame.
PARAM_OWNER = ("param", 0)


class FrameAllocator:
    """Ownership map for the physical pages of the dual-port RAM."""

    def __init__(self, num_frames: int) -> None:
        if num_frames < 2:
            raise VimError(
                f"need at least 2 DP-RAM pages (param + data), got {num_frames}"
            )
        self.num_frames = num_frames
        self._owner: list[tuple[int, int] | tuple[str, int] | None] = [
            None
        ] * num_frames
        self._resident: dict[tuple[int, int], int] = {}

    def reset(self) -> None:
        """Free every frame (start of a new execution)."""
        self._owner = [None] * self.num_frames
        self._resident.clear()

    def free_frames(self) -> list[int]:
        """Currently unowned frames, lowest number first."""
        return [f for f, owner in enumerate(self._owner) if owner is None]

    def data_pages(self) -> list[tuple[int, tuple[int, int]]]:
        """``(frame, (obj_id, vpage))`` of every data frame, lowest first.

        One pass over the owner list, so a caller that needs both the
        frames and their pages makes no ``owner_of`` call per frame.
        ``assign_param`` stores the one ``PARAM_OWNER`` object, so an
        identity test is enough to skip the parameter frame.
        """
        return [
            (frame, owner)
            for frame, owner in enumerate(self._owner)
            if owner is not None and owner is not PARAM_OWNER
        ]

    def param_frame(self) -> int | None:
        """The frame holding the parameter page, if any."""
        owners = self._owner
        return owners.index(PARAM_OWNER) if PARAM_OWNER in owners else None

    def allocate_free(self) -> int | None:
        """Take the lowest free frame, or None when all are owned."""
        owners = self._owner
        return owners.index(None) if None in owners else None

    def assign(self, frame: int, obj_id: int, vpage: int) -> None:
        """Record that *frame* now hosts (obj_id, vpage)."""
        self._check(frame)
        if self._owner[frame] is not None:
            raise VimError(f"frame {frame} already owned by {self._owner[frame]}")
        key = (obj_id, vpage)
        if key in self._resident:
            raise VimError(f"page {key} already resident in frame {self._resident[key]}")
        self._owner[frame] = key
        self._resident[key] = frame

    def assign_param(self, frame: int) -> None:
        """Record that *frame* hosts the parameter-passing page."""
        self._check(frame)
        if self._owner[frame] is not None:
            raise VimError(f"frame {frame} already owned by {self._owner[frame]}")
        if self.param_frame() is not None:
            raise VimError("a parameter frame is already allocated")
        self._owner[frame] = PARAM_OWNER

    def release(self, frame: int) -> None:
        """Free *frame* (after eviction or parameter-page release)."""
        self._check(frame)
        owner = self._owner[frame]
        if owner is None:
            raise VimError(f"frame {frame} is already free")
        if owner != PARAM_OWNER:
            del self._resident[owner]  # type: ignore[arg-type]
        self._owner[frame] = None

    def owner_of(self, frame: int) -> tuple[int, int] | None:
        """The (obj_id, vpage) hosted by *frame* (None if free/param)."""
        self._check(frame)
        owner = self._owner[frame]
        if owner is None or owner == PARAM_OWNER:
            return None
        return owner  # type: ignore[return-value]

    def frame_of(self, obj_id: int, vpage: int) -> int | None:
        """The frame hosting (obj_id, vpage), or None if not resident."""
        return self._resident.get((obj_id, vpage))

    def resident_count(self) -> int:
        """Number of owned frames (data + param)."""
        return sum(1 for owner in self._owner if owner is not None)

    def _check(self, frame: int) -> None:
        if not 0 <= frame < self.num_frames:
            raise VimError(f"frame {frame} out of range [0, {self.num_frames})")
