"""Test-only oracle: the s/d boson operator algebra and a brute-force Fock space.

Independent of the closed forms in `esqpt`: the Hamiltonian is built here as a
normal-ordered operator from its pair operators, and spectra, coherent-state
energies and classical limits follow from that operator alone.
"""
