"""Watch the multimodal imbalance problem appear during joint training.

A concatenation-fusion classifier is trained on data where modality 1 is far
more informative than modality 2. The per-modality performance scores show
modality 1 racing ahead; masked evaluation then shows the joint model's weak
branch ending up WORSE than a unimodal model trained on modality 2 alone with
the same budget. That gap is the phenomenon every balancing method targets.
"""

from balancelab import MethodSpec, Run, SyntheticSpec, TrainConfig, generate, init_model, split
from balancelab.metrics import shapley
from balancelab.trainer import evaluate_accuracy, fit

spec = SyntheticSpec(2, 4, (12, 12), (3.0, 1.0), 1.0, 2000, seed=13)
data = generate(spec)
train, val, test = split(data, (0.8, 0.1, 0.1), seed=0)

arch = [[12, 24, 4], [12, 24, 4]]
cfg = TrainConfig(lr=1e-3, epochs=25)

[(joint, log)] = fit(cfg, [Run(train, val, init_model(arch, 4, seed=5), 3, MethodSpec())])
print("epoch  lr      loss    val_acc  score_1  score_2")
for r in log.records[::4]:
    print(f"{r.epoch:>5}  {r.lr:<7.4g} {r.train_loss:<7.3f} {r.val_accuracy:<8.3f} "
          f"{r.scores[0]:<8.3f} {r.scores[1]:.3f}")

values = shapley(joint, test).subset_values
full, only_strong, only_weak = (values[frozenset(kept)] for kept in ({0, 1}, {0}, {1}))
print(f"\njoint model test accuracy: {full:.3f}")
print(f"masked eval, modality 1 only: {only_strong:.3f}")
print(f"masked eval, modality 2 only: {only_weak:.3f}")

# the comparator: modality 2 trained alone, identical budget
solo_data = data.select_modalities([1])
s_train, s_val, s_test = split(solo_data, (0.8, 0.1, 0.1), seed=0)
[(solo, _)] = fit(cfg, [Run(s_train, s_val, init_model([arch[1]], 4, seed=5), 3, MethodSpec())])
solo_acc = evaluate_accuracy(solo, s_test)
print(f"modality 2 trained alone:     {solo_acc:.3f}")
print(f"\nweak branch inside the joint model vs alone: "
      f"{only_weak:.3f} < {solo_acc:.3f} -> suppressed" if only_weak < solo_acc
      else "no suppression on this draw")
