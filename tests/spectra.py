"""Dense views of a block-wise ``Spectrum``, for tests that compare against n x n references."""

import numpy as np

from critfish.linalg import Spectrum


def dense_eigenvectors(spectrum):
    """The n x n matrix whose column k is the eigenvector of level k, zero off its block."""
    v = np.zeros((spectrum.dim, spectrum.dim))
    for rows, levels, vectors in spectrum.blocks:
        v[np.ix_(rows, levels)] = vectors
    return v


def one_block(eigenvalues, eigenvectors):
    """A Spectrum of one block that holds every row and every level."""
    everything = np.arange(len(eigenvalues))
    return Spectrum(eigenvalues=np.asarray(eigenvalues, dtype=float), blocks=((everything, everything, eigenvectors),))
