"""The control surface of the loop.

Final residual spread over a grid of (usage, adherence) pairs. Rows scan
usage, columns scan adherence. Two monotone directions organize the whole
picture: more adherence noise widens the residuals at full usage, more
usage tightens them when predictions are accepted verbatim.
"""

from loopsim import LoopConfig, SETTING_SLIDING, generate_linear, stddev_surface

data = generate_linear(400, 10, noise_variance=1.0, seed=42)
base = LoopConfig(setting=SETTING_SLIDING, total_steps=280, usage_p=1.0,
                  adherence_s=0.0, model="sgd", seed=7, repeats=2)

p_grid = (0.0, 0.5, 1.0)
s_grid = (0.0, 1.0, 2.0, 3.0)
surface = stddev_surface(data, p_grid, s_grid, base, workers=4)

header = "usage\\adh " + "".join(f"{s:>9.1f}" for s in s_grid)
print(header)
for i, p in enumerate(p_grid):
    cells = "".join(f"{surface.mean[i, j]:9.3f}" for j in range(len(s_grid)))
    print(f"{p:9.2f} {cells}")

if surface.errors:
    print("failed cells:", surface.errors)

print()
print("read the last row left to right (adherence widens the spread) and the")
print("first column top to bottom (usage narrows it).")
