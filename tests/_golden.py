"""Frozen rank-3 differential table, transcribed term by term, and the
helper that builds elements from such (coeff, [names]) terms.

Every line of the eight-dimensional reduction example, written in the
canonical factor order of this package (anticommuting decoration words
normalized to increasing indices, signs absorbed into the coefficients).
"""

from fractions import Fraction

from ekk.dgca import _element_from_names


def E(model, *terms):
    """Build an element from (coeff, [names]) pairs in the given model."""
    return _element_from_names(terms, {g.name: g for g in model.generators})


GOLDEN_RANK3 = {
    "w1": [], "w2": [], "w3": [],
    "g4": [(1, ["s1g4", "w1"]), (1, ["s2g4", "w2"]), (1, ["s3g4", "w3"])],
    "g7": [(Fraction(-1, 2), ["g4", "g4"]), (1, ["s1g7", "w1"]),
           (1, ["s2g7", "w2"]), (1, ["s3g7", "w3"])],
    "s1g4": [(-1, ["s1s2g4", "w2"]), (-1, ["s1s3g4", "w3"])],
    "s2g4": [(1, ["s1s2g4", "w1"]), (-1, ["s2s3g4", "w3"])],
    "s3g4": [(1, ["s1s3g4", "w1"]), (1, ["s2s3g4", "w2"])],
    "s1g7": [(1, ["s1g4", "g4"]), (-1, ["s1s2g7", "w2"]),
             (-1, ["s1s3g7", "w3"])],
    "s2g7": [(1, ["s2g4", "g4"]), (1, ["s1s2g7", "w1"]),
             (-1, ["s2s3g7", "w3"])],
    "s3g7": [(1, ["s3g4", "g4"]), (1, ["s1s3g7", "w1"]),
             (1, ["s2s3g7", "w2"])],
    "s1s2g4": [(1, ["s1s2s3g4", "w3"])],
    "s1s3g4": [(-1, ["s1s2s3g4", "w2"])],
    "s2s3g4": [(1, ["s1s2s3g4", "w1"])],
    "s1s2g7": [(-1, ["s1s2g4", "g4"]), (-1, ["s1g4", "s2g4"]),
               (1, ["s1s2s3g7", "w3"])],
    "s1s3g7": [(-1, ["s1s3g4", "g4"]), (-1, ["s1g4", "s3g4"]),
               (-1, ["s1s2s3g7", "w2"])],
    "s2s3g7": [(-1, ["s2s3g4", "g4"]), (-1, ["s2g4", "s3g4"]),
               (1, ["s1s2s3g7", "w1"])],
    "s1s2s3g4": [],
    "s1s2s3g7": [(1, ["s1s2s3g4", "g4"]), (1, ["s1g4", "s2s3g4"]),
                 (1, ["s1s2g4", "s3g4"]), (-1, ["s1s3g4", "s2g4"])],
}
