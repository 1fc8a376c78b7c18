"""Test-only oracles: the s/d boson operator algebra, a brute-force Fock space,
the 4-D multistart stationary-point census, the exact spectrum on the SU(3)
line, and the exact lambda = 0 level-counting function.

Independent of the closed forms in `esqpt`: the Hamiltonian is built here as a
normal-ordered operator from its pair operators, and spectra, coherent-state
energies and classical limits follow from that operator alone.  The multistart
census searches the whole phase space with Newton's method, where `esqpt`
solves polynomials on a symmetry plane.
"""
