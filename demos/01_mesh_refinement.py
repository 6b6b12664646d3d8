"""
Newest-vertex bisection on the Z-shaped domain
==============================================

Marked triangles are bisected at their refinement edge; closure keeps the
mesh conforming, and every element stays similar to one of finitely many
shapes, so angles never degenerate no matter how locally we refine.
"""

import numpy as np

from afem.mesh import (closure_cost, create_initial, locate, read_text, refine,
                       write_text)

mesh = create_initial("z_shape")
print("initial mesh: %d vertices, %d triangles, min angle %.1f deg"
      % (mesh.n_vertices, mesh.n_triangles, np.degrees(mesh.min_angle())))

# refine only the elements touching the re-entrant corner at the origin
levels = [mesh]
markings = []
for _ in range(12):
    m = levels[-1]
    touches = (np.abs(m.vertices[m.triangles]).max(axis=2).min(axis=1) < 1e-12)
    marked = np.nonzero(touches)[0]
    markings.append(marked)
    levels.append(refine(m, marked))

final = levels[-1]
print("after 12 corner-directed rounds: %d triangles, min angle %.1f deg"
      % (final.n_triangles, np.degrees(final.min_angle())))

# closure adds elements beyond the marked ones, but only boundedly many
print("elements created per marked element: %.2f"
      % closure_cost(levels, markings))

# smallest element sits at the corner, largest stays at the far boundary
areas = final.areas
at_corner = locate(final, np.array([[1e-9, 1e-9]]))[0]
print("area range %.2e .. %.2e, corner element area %.2e"
      % (areas.min(), areas.max(), areas[at_corner]))

# meshes serialize to a plain text format and come back bit-identical
import io

buf = io.StringIO()
write_text(final, buf)
again = read_text(io.StringIO(buf.getvalue()))
assert (again.triangles == final.triangles).all()
print("text round trip ok (%d bytes)" % len(buf.getvalue()))
