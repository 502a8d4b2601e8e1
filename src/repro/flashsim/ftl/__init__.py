"""FTL implementations: hybrid log-block, FAST, strict block-map, page-map."""

from repro.flashsim.ftl.base import BaseFTL, BlockMappedFTL, FILLER_TOKEN
from repro.flashsim.ftl.blockmap import BlockMapConfig, BlockMapFTL
from repro.flashsim.ftl.fast import FastConfig, FastFTL
from repro.flashsim.ftl.hybrid import HybridConfig, HybridLogFTL
from repro.flashsim.ftl.pagemap import PageMapConfig, PageMapFTL

__all__ = [
    "BaseFTL",
    "BlockMappedFTL",
    "BlockMapConfig",
    "BlockMapFTL",
    "FastConfig",
    "FastFTL",
    "FILLER_TOKEN",
    "HybridConfig",
    "HybridLogFTL",
    "PageMapConfig",
    "PageMapFTL",
]
