//! SGD with momentum and weight decay, plus the step-decay learning-rate
//! schedule the paper uses in Fig. 6.

use mbs_tensor::Tensor;

use crate::module::{Module, StateDict, StateError};

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (paper uses 0.9-style training).
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    velocities: Vec<Tensor>,
}

impl Sgd {
    /// Creates the optimizer.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            momentum,
            weight_decay,
            velocities: Vec::new(),
        }
    }

    /// Applies one update using the gradients accumulated in the model.
    ///
    /// Parameters are visited in a stable order, so the same optimizer can
    /// be reused across steps.
    pub fn step(&mut self, model: &mut dyn Module) {
        let mut i = 0usize;
        let lr = self.lr;
        let mu = self.momentum;
        let wd = self.weight_decay;
        let velocities = &mut self.velocities;
        model.visit_params(&mut |p| {
            if velocities.len() <= i {
                velocities.push(Tensor::zeros(p.value.shape()));
            }
            let v = &mut velocities[i];
            for ((vv, &g), &w) in v
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(p.value.data())
            {
                *vv = mu * *vv + g + wd * w;
            }
            for (w, &vv) in p.value.data_mut().iter_mut().zip(v.data()) {
                *w -= lr * vv;
            }
            i += 1;
        });
    }

    /// Exports the momentum buffers in the same stable order `step` fills
    /// them. An optimizer that has not stepped yet exports an empty dict.
    pub fn export_state(&self, dict: &mut StateDict) {
        for v in &self.velocities {
            dict.push_tensor(v);
        }
    }

    /// Restores momentum buffers exported by [`Sgd::export_state`].
    ///
    /// The buffers are adopted as-is; shape agreement with the model being
    /// optimized is guaranteed by the checkpoint fingerprint, and `step`
    /// re-derives buffer/parameter pairing from visit order.
    pub fn import_state(&mut self, dict: &mut StateDict) -> Result<(), StateError> {
        let mut velocities = Vec::with_capacity(dict.len());
        while !dict.is_empty() {
            let entry = dict.pop(velocities.len())?;
            velocities.push(Tensor::from_vec(&entry.shape, entry.data));
        }
        self.velocities = velocities;
        Ok(())
    }
}

/// Step-decay schedule: multiply the base rate by `decay` at each epoch in
/// `milestones` (Fig. 6 uses 0.1 at epochs 30/60/80).
pub fn step_lr(base: f32, decay: f32, milestones: &[usize], epoch: usize) -> f32 {
    let passed = milestones.iter().filter(|&&m| epoch >= m).count() as i32;
    base * decay.powi(passed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sgd_descends_a_quadratic() {
        // Minimize |W·x - t|^2 for a single linear layer.
        let mut rng = StdRng::seed_from_u64(5);
        let mut lin = Linear::new(2, 1, &mut rng);
        let mut opt = Sgd::new(0.05, 0.9, 0.0);
        let x = Tensor::from_vec(&[4, 2], vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, -0.5]);
        let t = [1.0f32, -1.0, 0.0, 1.0];
        let mut last = f32::INFINITY;
        for it in 0..200 {
            lin.zero_grad();
            let y = lin.forward(&x, true);
            let mut dy = Tensor::zeros(y.shape());
            let mut loss = 0.0;
            for (i, target) in t.iter().enumerate() {
                let e = y.data()[i] - target;
                loss += e * e;
                dy.data_mut()[i] = 2.0 * e / 4.0;
            }
            let _ = lin.backward(&dy);
            opt.step(&mut lin);
            if it % 50 == 49 {
                assert!(
                    loss < last + 1e-3,
                    "loss should not increase: {loss} > {last}"
                );
                last = loss;
            }
        }
        assert!(last < 0.05, "final loss {last}");
    }

    #[test]
    fn step_lr_decays_at_milestones() {
        assert_eq!(step_lr(0.1, 0.1, &[30, 60, 80], 0), 0.1);
        assert!((step_lr(0.1, 0.1, &[30, 60, 80], 30) - 0.01).abs() < 1e-9);
        assert!((step_lr(0.1, 0.1, &[30, 60, 80], 85) - 1e-4).abs() < 1e-9);
    }
}
