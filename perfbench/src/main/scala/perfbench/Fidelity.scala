package perfbench

import repro.core.FedexResult
import repro.eval.Metrics
import scala.collection.mutable.ArrayBuffer

/** FEDEX-SAMPLING fidelity, scored as `Experiments.samplingAccuracy` scores
  * it (the paper's Fig 7): precision@3 of the sampled skyline against the
  * exact skyline, and nDCG of the sampled candidate ranking against the exact
  * ranking, for the same query and seed. An exact query is its own reference
  * and scores 1. The workload's value is the mean over its queries.
  */
object Fidelity {

  def score(inst: Instance, checked: Seq[Option[FedexResult]], explainer: Main.Explainer,
            problems: ArrayBuffer[String]): Seq[(String, Double, String)] = {
    val per = inst.steps.zip(checked).flatMap {
      case ((q, st), Some(pred)) =>
        val cfg = inst.config(q)
        val truth =
          if (!q.sampled) Right(pred)
          else explainer(st, cfg.copy(sampleRows = None))
        truth match {
          case Left(why) => problems += s"${q.label} exact reference: $why"; None
          case Right(t) => Some((
            Metrics.precisionAtK(t.skyline.map(_.candidate.key), pred.skyline.map(_.candidate.key), 3),
            Metrics.ndcg(t.rankedKeys(cfg.wI, cfg.wC), pred.rankedKeys(cfg.wI, cfg.wC))))
        }
      case ((q, _), None) => problems += s"${q.label}: no checked result to score"; None
    }
    if (per.isEmpty) Seq.empty
    else Seq(
      ("p_at_3", per.map(_._1).sum / per.size, "share"),
      ("ndcg", per.map(_._2).sum / per.size, "share"))
  }
}
