//! Ablation A2 (paper §III-C): the contrast score predicts the
//! contrastive-gradient magnitude.
//!
//! Draws a candidate pool from the stream, computes (a) contrast scores
//! `S(x) = 1 − zᵀz⁺` and (b) analytic per-sample gradient norms
//! `‖∂ℓ/∂z‖` from Eq. (5), and reports their Spearman rank correlation
//! plus the case-1 / case-2 contrast of §III-C — before and after a bit
//! of training.
//!
//! Run: `cargo run -p sdc-experiments --release --bin ablation_gradient`

use sdc_core::grad_analysis::{per_sample_grad_norms, spearman_rank_correlation};
use sdc_core::score::{contrast_scores, score_cmp};
use sdc_data::augment::flip::hflip;
use sdc_data::stack_image_tensors;
use sdc_data::stream::TemporalStream;
use sdc_data::synth::{DatasetPreset, SynthDataset};
use sdc_data::Sample;
use sdc_experiments::{parse_args, policy_by_name, print_table, train_policy, ScaledSetup};
use sdc_tensor::Tensor;

fn analyze(
    model: &mut sdc_core::ContrastiveModel,
    pool: &[Sample],
    temperature: f32,
) -> (f32, f32, f32) {
    let scores = contrast_scores(model, pool).expect("scoring");
    let originals: Vec<Tensor> = pool.iter().map(|s| s.image.clone()).collect();
    let flips: Vec<Tensor> = pool.iter().map(|s| hflip(&s.image)).collect();
    let z1 = model.project(&stack_image_tensors(&originals).expect("stack")).expect("project");
    let z2 = model.project(&stack_image_tensors(&flips).expect("stack")).expect("project");
    let grads = per_sample_grad_norms(&z1, &z2, temperature).expect("grads");
    let rho = spearman_rank_correlation(&scores, &grads);

    // Case analysis: mean gradient of the lowest- and highest-score
    // quartiles (§III-C cases 1 and 2).
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    idx.sort_by(|&a, &b| score_cmp(scores[a], scores[b]));
    let q = (pool.len() / 4).max(1);
    let low: f32 = idx[..q].iter().map(|&i| grads[i]).sum::<f32>() / q as f32;
    let high: f32 = idx[pool.len() - q..].iter().map(|&i| grads[i]).sum::<f32>() / q as f32;
    (rho, low, high)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (scale, _) = parse_args();
    println!("ablation_gradient: scale={}", scale.name());
    let setup = ScaledSetup::new(DatasetPreset::Cifar10Like, scale, 37);
    let temperature = setup.trainer.temperature;

    let ds = SynthDataset::new(setup.preset.config(setup.trainer.seed));
    let mut stream = TemporalStream::new(ds, setup.stc, 37);
    let pool = stream.next_segment(4 * setup.trainer.buffer_size)?;

    // Untrained model.
    let mut fresh = sdc_core::ContrastiveModel::new(&setup.trainer.model);
    let (rho0, low0, high0) = analyze(&mut fresh, &pool, temperature);

    // Briefly trained model.
    let mut trainer = train_policy(&setup, policy_by_name("contrast", temperature, 37), 37)?;
    let (rho1, low1, high1) = analyze(trainer.model_mut(), &pool, temperature);

    print_table(
        "Ablation A2: contrast score vs gradient magnitude (Eq. (5))",
        &[
            "Encoder",
            "Spearman ρ(score, ‖grad‖)",
            "mean ‖grad‖ low-score Q1",
            "mean ‖grad‖ high-score Q4",
        ],
        &[
            vec![
                "untrained".into(),
                format!("{rho0:.3}"),
                format!("{low0:.3}"),
                format!("{high0:.3}"),
            ],
            vec![
                "trained".into(),
                format!("{rho1:.3}"),
                format!("{low1:.3}"),
                format!("{high1:.3}"),
            ],
        ],
    );
    println!(
        "\nexpected: positive rank correlation and Q4 ≫ Q1 — high-score data generate\n\
         large gradients (case 2), low-score data near-zero gradients (case 1)."
    );
    Ok(())
}
