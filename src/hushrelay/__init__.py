"""Payment-channel-network routing engine.

Distributed push-relabel routing over a deterministic message-passing
simulator, verified against sequential max-flow oracles, with encrypted
sink-to-source flow reporting and scale-free benchmark tooling.  Callers
import the modules (`hushrelay.sim`, `hushrelay.graph`, ...); the package
namespace holds only `__version__`.
"""

__version__ = "0.1.0"
