graph:
X -> Y
Y -> Z
equations:
Y = 0.8 * X + U
Z = -0.6 * Y + U
noise:
U_X ~ Normal(0.0, 1.0)
U_Y ~ Normal(0.0, 1.0)
U_Z ~ Normal(0.0, 1.0)
