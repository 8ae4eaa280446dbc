package repro.baselines

import repro.core.{FedexConfig, Interestingness, Step}

/** The IO ("Interestingness Only") baseline of §4.1, following [79]: the
  * influence of an attribute is the interestingness of that attribute in
  * d_out w.r.t. D_in — i.e. exactly FEDEX's step (1) without any set-of-rows
  * contribution analysis. Its explanation is "column X changed/diverges",
  * never *which rows* made it so.
  */
object InterestingnessOnly {

  final case class IoExplanation(attr: String, score: Double) {
    def caption: String = f"Column '$attr' is interesting in the result (score $score%.3f)"
  }

  def explain(step: Step, k: Int = 3): Seq[IoExplanation] =
    Interestingness.scores(step, step.outputAttrs, FedexConfig().maxBins)
      .toSeq.sortBy { case (a, s) => (-s, a) }
      .take(k)
      .map { case (a, s) => IoExplanation(a, s) }
}
