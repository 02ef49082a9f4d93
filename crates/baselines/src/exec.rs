//! The analytic platform models behind one value type — what the serving
//! runtime prices served traffic with
//! (`dpu_runtime::PlatformSummary::modelled`).
//!
//! The per-platform modules ([`cpu`](crate::cpu), [`gpu`](crate::gpu),
//! [`dpu_v1`](crate::dpu_v1), [`spu`](crate::spu)) answer "how long would
//! one evaluation of this DAG take, and at what power". [`BaselineModel`]
//! packages all four models behind one type, so a serving report asks
//! every platform the same questions ([`BaselineModel::exec_time_s`],
//! [`BaselineModel::power_w`]). The timing is the same analytic model the
//! paper's comparison figures are built from — see DESIGN.md §1 for why
//! the baselines are modelled rather than measured.
//!
//! Everything here is a pure function of (model parameters, DAG
//! structure): a baseline's time needs no inputs and no outputs, which is
//! what lets the serving runtime compute a baseline's cost for served
//! traffic instead of executing it, and CI gate the result.

use dpu_dag::Dag;

use crate::cpu::CpuModel;
use crate::dpu_v1::DpuV1Model;
use crate::gpu::GpuModel;
use crate::spu::SpuModel;
use crate::PlatformResult;

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
