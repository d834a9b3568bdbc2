"""Slow reference implementations that CRF fast paths are checked against."""

import numpy as np


def viterbi_top_k_reference(crf, emissions, k=3):
    """The original O(T²·k log(T·k)) full-sort list-Viterbi scan.

    The parity oracle for ``LinearChainCRF.viterbi_top_k``: the heap
    merge must reproduce its output, ties included, exactly.
    """
    emissions = np.asarray(emissions)
    length, num_tags = emissions.shape
    trans = crf.transitions.data + crf._transition_penalty
    start = crf.start_scores.data + crf._start_penalty
    beams = [
        [(float(start[t] + emissions[0, t]), [t])] for t in range(num_tags)
    ]
    for step in range(1, length):
        new_beams = []
        for tag in range(num_tags):
            candidates = []
            for prev_tag in range(num_tags):
                for score, path in beams[prev_tag]:
                    candidates.append(
                        (
                            score + trans[prev_tag, tag]
                            + emissions[step, tag],
                            path + [tag],
                        )
                    )
            candidates.sort(key=lambda item: item[0], reverse=True)
            new_beams.append(candidates[:k])
        beams = new_beams
    finals = []
    for tag in range(num_tags):
        for score, path in beams[tag]:
            finals.append((score + float(crf.end_scores.data[tag]), path))
    finals.sort(key=lambda item: item[0], reverse=True)
    return [(path, score) for score, path in finals[:k]]
