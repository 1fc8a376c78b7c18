"""Machine-generated formulas of the classical Hamiltonian (tools/gen_derivs.py); do not edit by hand."""

from numpy import sqrt


def h_parts(x, y, px, py, b0, with_xi):
    u = (1/2)*(x*x + y*y + px*px + py*py)
    hxi = None
    if with_xi:
        w = (1/2)*(x*x + y*y - px*px - py*py) - b0*b0*(1 - u)
        bpb = x*px + y*py
        hxi = (1/2)*(bpb*bpb + w*w)
        del w, bpb
    h0 = u*u + b0*b0*(1 - u)*u
    root = sqrt((1/2)*abs(1 - u))
    del u
    A = (py*py - px*px)*x + 2*px*py*y - x*x*x + 3*x*y*y
    hz = b0*root*A
    del root, A
    pg = x*py - y*px
    hzz = pg*pg
    del pg
    return h0, hzz, hz, hxi

def grad_parts(x, y, px, py, b0, with_xi):
    x0 = px**2
    x1 = py**2
    x2 = x**2
    x3 = y**2
    x4 = x0 + x1 + x2 + x3
    x5 = (1/2)*b0**2
    x6 = x4 - 2
    x7 = -x4*x5 + x4 - x5*x6
    x8 = px*y
    x9 = py*x
    x10 = 2*x8 - 2*x9
    x11 = 3*x3
    x12 = x0 - x1
    x13 = sqrt(-x6)
    x14 = (2*py*x8 - x*x*x + x*x11 - x*x12)/x13
    x15 = (1/2)*x14
    parts = (
        (x*x7, x7*y, px*x7, py*x7),
        (-py*x10, px*x10, x10*y, -x*x10),
        (-1/2*b0*(x*x14 + x13*(-x11 + x12 + 3*x2)), b0*(x13*(px*py + 3*x*y) - x15*y), -b0*(px*x15 + x13*(px*x - py*y)), b0*(-py*x15 + x13*(x8 + x9))),
    )
    if not with_xi:
        return parts + (None,)
    z0 = px*x + py*y
    z1 = b0**2
    z2 = px**2
    z3 = py**2
    z4 = x**2 + y**2
    z5 = -1/2*z1*(z2 + z3 + z4 - 2) + (1/2)*z2 + (1/2)*z3 - 1/2*z4
    z6 = z5*(z1 + 1)
    z7 = z5*(z1 - 1)
    return parts + ((px*z0 - x*z6, py*z0 - y*z6, -px*z7 + x*z0, -py*z7 + y*z0),)

def hess_parts(x, y, px, py, b0, with_xi):
    x0 = x**2
    x1 = 3*x0
    x2 = b0**2
    x3 = 2*x0
    x4 = px**2
    x5 = py**2
    x6 = y**2
    x7 = x4 + x5 + x6
    x8 = x0 + x7
    x9 = (1/2)*x2
    x10 = x8 - 2
    x11 = -x10*x9 - x8*x9
    x12 = x2 - 1
    x13 = x*y
    x14 = 2*x13
    x15 = px*x
    x16 = 2*x15
    x17 = py*x
    x18 = 3*x6
    x19 = 2*x6
    x20 = x0 + x11 + x5
    x21 = px*y
    x22 = 2*x21
    x23 = py*y
    x24 = 2*x23
    x25 = 2*x4
    x26 = px*py
    x27 = 2*x26
    x28 = 2*x5
    x29 = -x10
    x30 = sqrt(x29)
    x31 = x*x30
    x32 = 3*x31
    x33 = x4 - x5
    x34 = x1 - x18 + x33
    x35 = 1/x30
    x36 = x*x35
    x37 = 1/x10
    x38 = (1/2)*py*x22 - 1/2*x*x*x + (1/2)*x*x18 - 1/2*x*x33
    x39 = x35*x38
    x40 = x30*y
    x41 = 3*x13 + x26
    x42 = x35*y
    x43 = (1/2)*x34
    x44 = x38/(x29*sqrt(x29))
    x45 = px*x30
    x46 = x15 - x23
    x47 = px*x35
    x48 = -py*x30
    x49 = x17 + x21
    x50 = py*x35
    x51 = x35*x41
    parts = (
        (x1 + x11 - x2*x3 + x7, -x12*x14, -x12*x16, -2*x12*x17, x18 - x19*x2 + x20 + x4, -x12*x22, -x12*x24, -x2*x25 + x20 + 3*x4 + x6, -x12*x27, x0 + x11 - x2*x28 + x4 + 3*x5 + x6),
        (x28, -x27, -x24, 4*py*x - 2*x21, x25, -2*x17 + 2*x22, -x16, x19, -x14, x3),
        (b0*(-x32 + x34*x36 + x39*(x0*x37 - 1)), -b0*(x13*x44 + x36*x41 - 3*x40 - x42*x43), -b0*(x15*x44 - x36*x46 - x43*x47 + x45), -b0*(x17*x44 + x36*x49 - x43*x50 + x48), b0*(x32 + x39*(x37*x6 - 1) - 2*x51*y), -b0*(px*x51 + x21*x44 - x42*x46 + x48), -b0*(py*x51 + x23*x44 + x42*x49 - x45), b0*(-x31 + x39*(x37*x4 - 1) + 2*x46*x47), -b0*(x26*x44 - x40 - x46*x50 + x47*x49), b0*(x31 + x39*(x37*x5 - 1) - 2*x49*x50)),
    )
    if not with_xi:
        return parts + (None,)
    z0 = px**2
    z1 = x**2
    z2 = b0**2
    z3 = z2 + 1
    z4 = z3**2
    z5 = py**2
    z6 = y**2
    z7 = z1 + z6
    z8 = -1/2*z0 + (1/2)*z2*(z0 + z5 + z7 - 2) - 1/2*z5 + (1/2)*z7
    z9 = z3*z8
    z10 = px*py
    z11 = x*y
    z12 = py*y
    z13 = px*x
    z14 = z2 - 1
    z15 = z14*z3
    z16 = px*y
    z17 = py*x
    z18 = z14**2
    z19 = z14*z8
    return parts + ((z0 + z1*z4 + z9, z10 + z11*z4, z12 + z13*z15 + 2*z13, z15*z17 + z16, z4*z6 + z5 + z9, z15*z16 + z17, z12*z15 + 2*z12 + z13, z0*z18 + z1 + z19, z10*z18 + z11, z18*z5 + z19 + z6),)

def kinetic_cubic(b0, ze, xi):
    b2, z2 = b0**2, ze**2
    return (
        b2*(b2*(b2*(b2*(b2*(b2*z2*(32*xi*xi*xi*xi + z2*(32*xi*xi*xi*z2 + xi**2*(xi*(-16*xi - 72) + 27))) + z2*(xi*xi*xi*(-128*xi - 136) + z2*(xi**2*z2*(-64*xi - 240) + xi*(xi*(xi*(32*xi + 392) + 216) - 108)))) - 16*xi*xi*xi*xi + z2*(xi**2*(xi*(192*xi + 528) + 144) + z2*(xi*(xi*(xi*(16*xi - 600) - 1240) - 36) + z2*(128*xi**2*z2 + xi*(xi*(416 - 96*xi) + 636)) + 108))) + xi*xi*xi*(64*xi + 32) + z2*(xi**2*(xi*(-96*xi - 872) - 528) + z2*(xi*(xi*(xi*(56 - 64*xi) + 2096) + 960) + z2*(xi*z2*(-256*xi - 576) + xi*(xi*(256*xi + 560) - 1360) - 536) - 216))) + xi*xi*xi*(-96*xi - 96) + z2*(xi**2*(xi*(736 - 64*xi) + 816) + z2*(xi*(xi*(xi*(16*xi + 640) - 1360) - 1776) + z2*(xi*(xi*(-32*xi - 1648) + 304) + z2*(128*xi*z2 + xi*(1248 - 64*xi) + 588) + 1272) + 108))) + xi*xi*xi*(64*xi + 96) + z2*(xi**2*(xi*(96*xi - 288) - 624) + z2*(xi*(xi*(xi*(32*xi - 576) + 96) + 1344) + z2*(xi*(xi*(1104 - 192*xi) + 1024) + z2*(xi*(384*xi - 576) + z2*(-256*xi - 192) - 1152) - 960)))) + xi*xi*xi*(-16*xi - 32) + z2*(xi**2*(xi*(32 - 32*xi) + 192) + z2*(xi*(xi*(xi*(160 - 16*xi) + 192) - 384) + z2*(xi*(xi*(96*xi - 192) - 640) + z2*(xi*(-192*xi - 128) + z2*(128*xi + 256) + 512) + 256))),
        b2*(b2*(b2*(b2*(b2*(b2*z2*(xi*xi*xi*(-32*xi - 12) + z2*(-64*xi*xi*xi*z2 + xi**2*(xi*(32*xi + 76) + 9))) + 16*xi*xi*xi*xi + z2*(xi**2*(xi*(128*xi + 140) + 60) + z2*(xi**2*z2*(192*xi + 320) + xi*(xi*(xi*(-96*xi - 452) - 344) - 54)))) + xi*xi*xi*(-64*xi - 32) + z2*(xi*(xi*(xi*(-240*xi - 308) - 308) - 72) + z2*(xi*(xi*(xi*(64*xi + 932) + 1124) + 640) + z2*(-128*xi**2*z2 + xi*(xi*(-64*xi - 832) - 424)) + 72))) + xi*xi*xi*(96*xi + 96) + z2*(xi*(xi*(xi*(272*xi + 324) + 440) + 288) + z2*(xi*(xi*(xi*(64*xi - 892) - 1440) - 1256) + z2*(xi*z2*(384*xi + 256) + xi*(xi*(544 - 320*xi) + 784) + 108) - 468))) + xi*xi*xi*(-64*xi - 96) + z2*(xi*(xi*(xi*(-176*xi - 224) - 232) - 360) + z2*(xi*(xi*(xi*(416 - 96*xi) + 896) + 800) + z2*(xi*(xi*(384*xi + 152) - 360) + z2*(xi*(-384*xi - 560) - 84) + 24) + 684))) + xi*xi*xi*(16*xi + 32) + z2*(xi*(xi*(xi*(48*xi + 80) + 40) + 144) + z2*(xi*(xi*(xi*(32*xi - 80) - 272) - 112) + z2*(xi*(xi*(-128*xi - 184) + 48) + z2*(xi*(128*xi + 304) + 96) - 192) - 288))),
        b2**2*(b2*(b2*(b2*(b2*(-4*xi*xi*xi*xi + z2*(xi*xi*xi*(2*xi + 18) + z2*(32*xi*xi*xi*z2 + xi**2*(xi*(-16*xi - 8) - 15)))) + xi*xi*xi*(16*xi + 8) + z2*(xi**2*(xi*(10*xi - 84) - 48) + z2*(xi**2*z2*(-128*xi - 112) + xi*(xi*(xi*(64*xi + 48) + 106) + 48)))) + xi*xi*xi*(-24*xi - 24) + z2*(xi*(xi*(xi*(90 - 42*xi) + 172) + 24) + z2*(xi*z2*(xi*(192*xi + 336) + 116) + xi*(xi*(xi*(-96*xi - 96) - 163) - 236) - 33))) + xi*xi*xi*(16*xi + 24) + z2*(xi*(xi*(46*xi**2 - 164) - 72) + z2*(xi*(xi*(xi*(64*xi + 80) + 68) + 260) + z2*(xi*(xi*(-128*xi - 336) - 236) - 42) + 132))) + xi*xi*xi*(-4*xi - 8) + z2*(xi*(xi*(xi*(-16*xi - 24) + 40) + 48) + z2*(xi*(xi*(xi*(-16*xi - 24) + 4) - 72) + z2*(xi*(xi*(32*xi + 112) + 120) + 48) - 96))),
        b2*b2*b2*(b2*(b2*(b2*z2*(xi*xi*xi*(-2*xi - 2) + xi**2*z2*(4*xi + 3)) + z2*(xi**2*(xi*(6*xi + 12) + 4) + xi*z2*(xi*(-12*xi - 22) - 6))) + z2*(xi*(xi*(xi*(-6*xi - 18) - 14) - 2) + z2*(xi*(xi*(12*xi + 35) + 26) + 3))) + z2*(xi*(xi*(xi*(2*xi + 8) + 10) + 4) + z2*(xi*(xi*(-4*xi - 16) - 20) - 8))),
    )

def trivial_cubic(b0, ze, xi):
    b2, z2 = b0**2, ze**2
    return (
        b2*(b2*(b2*(b2*xi**2 + xi*(4*xi - 4)) + xi*(6*xi - 4) + 4) + xi*(4*xi + 4) + 16*z2 - 8) + xi*(xi + 4) + 4,
        b2*(b2*(b2*(-6*b2*xi**2 + xi*(20 - 20*xi)) + xi*(16 - 24*xi) - 16) + xi*(-12*xi - 12) - 48*z2 + 24) + xi*(-2*xi - 8) - 8,
        b2*(b2*(b2*(12*b2*xi**2 + xi*(32*xi - 32)) + xi*(28*xi - 24) + 20) + xi*(8*xi + 8) + 36*z2 - 16),
        b2**2*(b2*(-8*b2*xi**2 + xi*(16 - 16*xi)) + xi*(16 - 8*xi) - 8),
    )

def ps_cubic(x, b0, ze, xi):
    return (
        b0**2*(4*b0**2*xi - 8*xi - 8) + 4*xi + 8,
        -6*b0*x*ze,
        b0**2*(2*xi + 2) + x**2*(-2*b0**2*xi + 2*xi - 4*ze**2) - 2*xi - 4,
        x*(-b0*x**2*ze + b0*ze),
    )

def axial_quartic(b0, ze, xi):
    return (
        (1/2)*b0*b0*b0*b0*xi,
        0,
        b0**2*(1 - xi),
        -2*b0*ze,
        (1/2)*xi + 1,
    )
