"""Machine-generated polynomials of the kinetic split of H and of H on the gamma = 0
axis (tools/gen_derivs.py); do not edit by hand."""

def momentum_p0(x, y, b0, ze, xi):
    return (
        b0**2*(-8*b0**2*xi + 16*xi + 16) - 8*xi - 16,
        0,
        b0**2*(-4*xi - 4) + x**2*(4*b0**2*xi - 2*xi + 4*ze**2) + 4*xi + y**2*(4*b0**2*xi - 2*xi + 4*ze**2) + 8,
        x*(b0*x**2*ze - 3*b0*y**2*ze),
    )

def momentum_p1(x, y, b0, ze, xi):
    return (
        12*b0**2*x**2*ze**2 + 12*b0**2*y**2*ze**2,
        x*(b0*x**2*ze*(-5*xi + 10*ze**2) + b0*y**2*ze*(15*xi - 30*ze**2)),
        x**2*(-2*b0**2*ze**2 + x**2*(b0**2*ze**2 + (1/2)*xi**2 + ze**2*(-2*xi + 2*ze**2)) + y**2*(2*b0**2*ze**2 + xi**2 + ze**2*(-4*xi + 4*ze**2))) + y**2*(-2*b0**2*ze**2 + y**2*(b0**2*ze**2 + (1/2)*xi**2 + ze**2*(-2*xi + 2*ze**2))),
        x*(x**2*(b0*x**2*ze*(-1/4*xi + (1/2)*ze**2) + b0*y**2*ze*((1/2)*xi - ze**2) + b0*ze*((1/2)*xi - ze**2)) + y**2*(b0*y**2*ze*((3/4)*xi - 3/2*ze**2) + b0*ze*(-3/2*xi + 3*ze**2))),
    )

def momentum_d2(x, y, b0, ze, xi):
    return (
        b0**2*x**2*ze**2 + b0**2*y**2*ze**2,
        x*(b0*x**2*ze*(-1/2*xi + ze**2) + b0*y**2*ze*((3/2)*xi - 3*ze**2)),
        x**2*(x**2*((1/16)*xi**2 + ze**2*(-1/4*xi + (1/4)*ze**2)) + y**2*((1/8)*xi**2 + ze**2*(-1/2*xi + (1/2)*ze**2))) + y**4*((1/16)*xi**2 + ze**2*(-1/4*xi + (1/4)*ze**2)),
    )

def kinetic_matrix(x, y, s, b0, ze, xi):
    return (
        (x*(-b0*s*ze + (1/2)*x*xi) + y**2*ze**2, b0*s*y*ze + x*y*((1/2)*xi - ze**2)),
        (b0*s*y*ze + x*y*((1/2)*xi - ze**2), x*(b0*s*ze + x*ze**2) + (1/2)*xi*y**2),
    )

def kinetic_slope(x, y, b0, ze, xi):
    return (
        (-b0*x*ze, b0*y*ze),
        (b0*y*ze, b0*x*ze),
    )

def axial_quartic(b0, ze, xi):
    return (
        (1/2)*b0**4*xi,
        0,
        b0**2*(1 - xi),
        -2*b0*ze,
        (1/2)*xi + 1,
    )
