//! DAG-level execution API over the analytic platform models — what the
//! serving runtime prices served traffic with
//! (`dpu_runtime::PlatformSummary::modelled`).
//!
//! The per-platform modules ([`cpu`](crate::cpu), [`gpu`](crate::gpu),
//! [`dpu_v1`](crate::dpu_v1), [`spu`](crate::spu)) answer "how long would
//! one evaluation of this DAG take, and at what power" — enough for the
//! offline Table III / Fig. 14 binaries, but not for *serving*: a live
//! request also needs output values. [`BaselineModel`] packages all four
//! models behind one type and adds [`BaselineModel::execute`], which
//! combines the platform's modelled time with the reference DAG
//! evaluator's sink values. The outputs are the mathematically exact DAG
//! results (what the measured platform's FP32 kernels compute, up to
//! re-association), and the timing is the same analytic model the paper's
//! comparison figures are built from — see DESIGN.md §1 for why the
//! baselines are modelled rather than measured.
//!
//! Everything here is a pure function of (model parameters, DAG
//! structure, inputs): repeated executions are deterministic, which is
//! what lets the serving runtime compute a baseline's cost for served
//! traffic instead of executing it, and CI gate the result.

use dpu_dag::{eval, Dag, DagError};

use crate::cpu::CpuModel;
use crate::dpu_v1::DpuV1Model;
use crate::gpu::GpuModel;
use crate::spu::SpuModel;
use crate::PlatformResult;

/// One evaluation of a DAG on an analytic baseline platform.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRun {
    /// Sink values from the reference evaluator, in sink id order.
    pub outputs: Vec<f32>,
    /// Modelled execution time of this evaluation on the platform, in
    /// seconds (input-independent: the models are shape-driven).
    pub seconds: f64,
    /// Arithmetic DAG operations evaluated.
    pub dag_ops: u64,
}

/// Any of the paper's four comparison platforms, behind one value type.
///
/// Constructed from published defaults ([`BaselineModel::cpu`] etc.) or
/// from explicit model parameters; two values compare equal iff they
/// model the same platform with the same parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BaselineModel {
    /// 18-core Xeon running GRAPHOPT super-layers.
    Cpu(CpuModel),
    /// RTX 2080Ti running layer-wise kernels.
    Gpu(GpuModel),
    /// The DPU (v1) ASIP predecessor.
    DpuV1(DpuV1Model),
    /// The SPU accelerator (estimated, as in the paper).
    Spu(SpuModel),
}

impl BaselineModel {
    /// The CPU baseline at its published defaults.
    pub fn cpu() -> Self {
        BaselineModel::Cpu(CpuModel::default())
    }

    /// The GPU baseline at its published defaults.
    pub fn gpu() -> Self {
        BaselineModel::Gpu(GpuModel::default())
    }

    /// The DPU-v1 baseline at its published defaults.
    pub fn dpu_v1() -> Self {
        BaselineModel::DpuV1(DpuV1Model::default())
    }

    /// The SPU estimate at its published defaults.
    pub fn spu() -> Self {
        BaselineModel::Spu(SpuModel::default())
    }

    /// Every platform at its defaults, in Table III column order.
    pub fn all() -> [BaselineModel; 4] {
        [Self::cpu(), Self::gpu(), Self::dpu_v1(), Self::spu()]
    }

    /// Parses a platform key as used on bench command lines
    /// (`cpu` / `gpu` / `dpu_v1` / `spu`, case-insensitive), returning
    /// the model at its published defaults.
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "cpu" => Some(Self::cpu()),
            "gpu" => Some(Self::gpu()),
            "dpu_v1" | "dpu-v1" | "dpuv1" | "dpu" => Some(Self::dpu_v1()),
            "spu" => Some(Self::spu()),
            _ => None,
        }
    }

    /// Stable machine-friendly platform key (`cpu`, `gpu`, `dpu_v1`,
    /// `spu`) — the name [`BaselineModel::by_name`] parses and the
    /// serving reports group by.
    pub fn platform(&self) -> &'static str {
        match self {
            BaselineModel::Cpu(_) => "cpu",
            BaselineModel::Gpu(_) => "gpu",
            BaselineModel::DpuV1(_) => "dpu_v1",
            BaselineModel::Spu(_) => "spu",
        }
    }

    /// Average power of the platform under DAG workloads, in watts.
    pub fn power_w(&self) -> f64 {
        match self {
            BaselineModel::Cpu(m) => m.power_w,
            BaselineModel::Gpu(m) => m.power_w,
            BaselineModel::DpuV1(m) => m.power_w,
            BaselineModel::Spu(m) => m.power_w,
        }
    }

    /// Modelled time of one evaluation of `dag` on this platform, in
    /// seconds.
    pub fn exec_time_s(&self, dag: &Dag) -> f64 {
        match self {
            BaselineModel::Cpu(m) => m.exec_time_s(dag),
            BaselineModel::Gpu(m) => m.exec_time_s(dag),
            BaselineModel::DpuV1(m) => m.exec_time_s(dag),
            BaselineModel::Spu(m) => m.exec_time_s(dag),
        }
    }

    /// Throughput/power for one workload — the Fig. 14 bar this platform
    /// contributes.
    pub fn evaluate(&self, dag: &Dag) -> PlatformResult {
        match self {
            BaselineModel::Cpu(m) => m.evaluate(dag),
            BaselineModel::Gpu(m) => m.evaluate(dag),
            BaselineModel::DpuV1(m) => m.evaluate(dag),
            BaselineModel::Spu(m) => m.evaluate(dag),
        }
    }

    /// Executes one evaluation of `dag` on this platform: reference
    /// evaluator sink values plus the platform's modelled time.
    ///
    /// # Errors
    ///
    /// [`DagError`] if `inputs` does not match the DAG's input count.
    pub fn execute(&self, dag: &Dag, inputs: &[f32]) -> Result<BaselineRun, DagError> {
        let outputs = eval::evaluate_sinks(dag, inputs)?;
        Ok(BaselineRun {
            outputs,
            seconds: self.exec_time_s(dag),
            dag_ops: dag.op_count() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_dag::{DagBuilder, Op};

    fn small_dag() -> Dag {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let s = b.node(Op::Add, &[x, y]).unwrap();
        b.node(Op::Mul, &[s, s]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn by_name_roundtrips_platform_keys() {
        for model in BaselineModel::all() {
            assert_eq!(BaselineModel::by_name(model.platform()), Some(model));
        }
        assert_eq!(BaselineModel::by_name("CPU"), Some(BaselineModel::cpu()));
        assert_eq!(BaselineModel::by_name("xeon"), None);
    }

    #[test]
    fn execute_returns_reference_outputs_and_model_time() {
        let dag = small_dag();
        for model in BaselineModel::all() {
            let run = model.execute(&dag, &[2.0, 3.0]).unwrap();
            assert_eq!(run.outputs, vec![25.0], "{}", model.platform());
            assert_eq!(run.seconds, model.exec_time_s(&dag));
            assert_eq!(run.dag_ops, dag.op_count() as u64);
            assert!(run.seconds > 0.0);
        }
    }

    #[test]
    fn execute_rejects_wrong_arity() {
        let dag = small_dag();
        assert!(BaselineModel::cpu().execute(&dag, &[1.0]).is_err());
        assert!(BaselineModel::cpu()
            .execute(&dag, &[1.0, 2.0, 3.0])
            .is_err());
    }

    #[test]
    fn evaluate_agrees_with_exec_time() {
        let dag = small_dag();
        for model in BaselineModel::all() {
            let r = model.evaluate(&dag);
            let expect = dag.op_count() as f64 / model.exec_time_s(&dag) / 1e9;
            assert!((r.throughput_gops - expect).abs() < 1e-12);
            assert_eq!(r.power_w, model.power_w());
        }
    }
}
