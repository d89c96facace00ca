"""Workload definitions: corpus shape, store and decoding settings, round make-up.

A run repeats whole rounds of identical operations. Each round builds every
store, merges, aligns, analyzes, loads and decodes; the decode sentences and
the offline passes are split into chunks and interleaved so that every timed
metric samples the whole round rather than one contiguous burst.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    langs: tuple[str, ...]
    sentences: int          # training sentences per language
    words: int              # target vocabulary size before the 3 specials
    cells: int              # cell-probe cells (clamped to the store size)
    probe: int              # cell-probe probes
    multilingual: bool      # translate with the merged stores, else the first language's
    greedy_sentences: int   # test sentences decoded greedily with the exact store, per round
    cellprobe_sentences: int  # ... greedily with the cell-probe store
    beam_sentences: int     # ... with beam search and the exact store
    chunks: int             # decode chunks per round; a load pass precedes each
    align_passes: int       # map-fit + map-apply of every non-pivot language, per round
    analyze_passes: int
    setups: int             # gen-toy repetitions per run; setup_s is their median
    check_greedy: int       # sentences replayed by the reference greedy decoder
    check_beam: int         # sentences replayed by the reference beam search
    k: int = 16
    lam: float = 0.4
    temperature: float = 10.0
    beam: int = 4
    max_len: int = 32
    dim: int = 64
    min_len: int = 3
    max_sent_len: int = 9

    @property
    def pivot(self) -> str:
        return self.langs[0]

    @property
    def test_sentences(self) -> int:
        return max(self.greedy_sentences, self.cellprobe_sentences, self.beam_sentences)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="small-6lang",
            langs=("aa", "bb", "cc", "dd", "ee", "ff"),
            sentences=500, words=200, cells=64, probe=8, multilingual=False,
            greedy_sentences=240, cellprobe_sentences=480, beam_sentences=96, chunks=4,
            align_passes=4, analyze_passes=2, setups=15,
            check_greedy=12, check_beam=4,
        ),
        Workload(
            name="large-3lang",
            langs=("aa", "bb", "cc"),
            sentences=10_000, words=200, cells=64, probe=8, multilingual=True,
            greedy_sentences=24, cellprobe_sentences=144, beam_sentences=12, chunks=3,
            align_passes=3, analyze_passes=2, setups=3,
            check_greedy=3, check_beam=1,
        ),
        # tiny, for the benchmark's own tests
        Workload(
            name="smoke",
            langs=("aa", "bb", "cc"),
            sentences=40, words=30, cells=8, probe=2, multilingual=True,
            greedy_sentences=6, cellprobe_sentences=6, beam_sentences=2, chunks=2,
            align_passes=1, analyze_passes=1, setups=2,
            check_greedy=6, check_beam=2,
        ),
    )
}

