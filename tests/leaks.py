"""What a query may not leave behind, counted the one way every suite
asserts it."""

from __future__ import annotations


def live_cursors(grid) -> int:
    """ResultCursor instances still deployed anywhere in *grid*'s
    environment: on a member's container, a replica's, or the
    federation's."""
    return sum(
        "/cursors/instances/" in path
        for container in grid.environment.containers()
        for path in container.service_paths()
    )
