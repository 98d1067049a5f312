"""Maximum flows from scipy, computed in a child process.

    python3 perfbench/maxflow.py < request.json > reply.json

run.py asks for the max-flow of every drawn pair through max_flows(), which
runs this file as a child process.  numpy and scipy are then never loaded
into the measuring process, so its peak RSS is the interpreter's and the
program's, not the checker's (numpy and scipy alone hold about 42 MiB).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

Edge = tuple[int, int]


def capacity_matrix(n: int, caps: dict[Edge, int]):
    """Directed capacities as the sparse int32 matrix scipy's max-flow takes."""
    import numpy as np
    from scipy.sparse import csr_array

    rows = np.fromiter((u for u, _ in caps), dtype=np.int32, count=len(caps))
    cols = np.fromiter((v for _, v in caps), dtype=np.int32, count=len(caps))
    data = np.fromiter(caps.values(), dtype=np.int32, count=len(caps))
    return csr_array((data, (rows, cols)), shape=(n, n))


def solve(matrix, s: int, r: int) -> tuple[int, int]:
    """The s-r max-flow, and the number of nodes on the sender's side of a
    minimum cut (those residually reachable from s)."""
    import numpy as np
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    result = maximum_flow(matrix, s, r)
    residual = (matrix - result.flow).tocsr()
    residual.data = (residual.data > 0).astype(np.int32)
    residual.eliminate_zeros()
    side = len(breadth_first_order(residual, s, directed=True, return_predecessors=False))
    return int(result.flow_value), side


def max_flows(n: int, caps: dict[Edge, int], pairs: list[Edge]) -> list[tuple[int, int]]:
    """(max-flow, sender-side size) per pair, from a child process."""
    request = {"n": n, "caps": [[u, v, c] for (u, v), c in caps.items()], "pairs": pairs}
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        input=json.dumps(request), capture_output=True, text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"maxflow.py exited {done.returncode}:\n{done.stderr}")
    return [tuple(x) for x in json.loads(done.stdout)]


def main() -> int:
    request = json.load(sys.stdin)
    matrix = capacity_matrix(request["n"], {(u, v): c for u, v, c in request["caps"]})
    json.dump([solve(matrix, s, r) for s, r in request["pairs"]], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
