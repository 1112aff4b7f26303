"""Neural-field video codec with meta-learned sine networks.

Videos are compressed into one video-level latent vector plus one small
vector per frame; both condition a shared coordinate network through
per-layer shifts. Training alternates a zero-initialized inner
adaptation of the latents with a first-order outer update of the shared
weights.

The library is used through its submodules (`vfuncta.codec`,
`vfuncta.training`, ...); the package root holds only the version.
"""

__version__ = "0.1.0"
