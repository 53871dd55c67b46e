"""Build the cylinder domain, inspect the mesh, and exercise the elements.

Run:  python3 demos/01_mesh_and_elements.py
"""

import numpy as np

from fpreg import (
    build_space, boundary_distances, generate_rect_with_hole, integrate,
    interpolate, locate_points, values_at,
)

# the rectangle-with-hole domain used by both experiments
mesh = generate_rect_with_hole(
    x_range=(-4, 4), y_range=(-4, 4),
    hole_center=(0, 0), hole_radius=0.5, target_h=0.2,
)
print(f"mesh: {mesh.num_vertices} vertices, {mesh.num_triangles} triangles")
print(f"area: {mesh.total_area():.6f} "
      f"(exact {64 - np.pi * 0.25:.6f})")
print(f"boundary facets: {len(mesh.boundary_edges)} "
      f"({(mesh.boundary_tags == 'hole').sum()} on the hole)")

# hole-rim vertices are snapped exactly onto the circle
hole_verts = np.unique(mesh.boundary_edges[mesh.boundary_tags == "hole"])
radii = np.linalg.norm(mesh.vertices[hole_verts], axis=1)
print(f"hole rim |r - 0.5| max: {np.abs(radii - 0.5).max():.2e}")

# P2 space: the paper-scale run uses about 6469 dofs on this mesh
space = build_space(mesh, degree=2)
print(f"P2 dofs: {space.n_dofs}")

# quadratic functions are reproduced exactly by P2 interpolation
f = interpolate(space, lambda p: p[:, 0] ** 2 + p[:, 1])
tri, bary = locate_points(mesh, [(1.3, -0.7)])
value = values_at(f, tri, bary)[0]
print(f"interpolant of x^2 + y at (1.3, -0.7): {value:.4f} "
      f"(expected {1.3**2 - 0.7:.4f})")
print(f"integral of the interpolant: {integrate(f):.6f}")

# distance to the boundary (hole or outer walls, whichever is closer)
pts = [(0.0, 0.7), (0.0, 3.7), (-2.0, 0.0)]
for pt, d in zip(pts, boundary_distances(mesh, pts)):
    print(f"distance to boundary from {pt}: {d:.4f}")
