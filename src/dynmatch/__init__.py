"""Fully dynamic graph matching with rank-layered augmentation.

The package re-exports nothing; import each name from its module:

- `dynmatch.core`: the instance (graph storage and random tapes), ranks and
  level thresholds;
- `dynmatch.rgmm`: the dynamically maintained greedy matching;
- `dynmatch.pipeline`: the layered pipeline and its `UpdateReport`;
- `dynmatch.finalmatch`: the final matcher over the union;
- `dynmatch.exact` and `dynmatch.reference`: the exact and static oracles;
- `dynmatch.streams`: the stream generators and the JSONL stream format;
- the harness: `dynmatch.replay`, `dynmatch.suites` (which loads numpy
  through `dynmatch.validators`) and `dynmatch.cli`.
"""
