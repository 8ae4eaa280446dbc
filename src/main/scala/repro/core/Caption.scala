package repro.core

/** Natural-language captions for explanations (§3.7). The paper renders a
  * captioned plot; figures are out of scope here, so the caption carries the
  * same quantities the plot would show — input/output shares and the ×-change
  * for exceptionality, the σ-distance from the mean for diversity.
  */
object Caption {

  private def pct(x: Double): String = f"${x * 100}%.1f%%"

  /** Caption for one explanation candidate. `measure` is "exceptionality" or
    * "diversity"; `setLabel` is the partition-method-appropriate label (§3.7):
    * the interval for numeric partitions, the B value for many-to-one, the
    * value itself for frequency partitions.
    */
  def render(measure: String, attr: String, partition: RowPartition, setLabel: String,
             interestingness: Double, stdContribution: Double, stats: SetStats): String =
    measure match {
      case "exceptionality" =>
        val shareTxt = (stats.inShare, stats.outShare) match {
          case (Some(i), Some(o)) if i > 0 && o > 0 =>
            val ratio = o / i
            val dir   = if (ratio >= 1) f"$ratio%.1fx more frequent" else f"${1 / ratio}%.1fx less frequent"
            s" They form ${pct(o)} of the output vs ${pct(i)} of the input ($dir)."
          case (Some(i), Some(o)) =>
            s" They form ${pct(o)} of the output vs ${pct(i)} of the input."
          case _ => ""
        }
        s"Rows where ${partition.labelAttr} = '$setLabel' contribute most to the deviation " +
          s"of column '$attr' (I=${f"$interestingness%.3f"}, Cstd=${f"$stdContribution%.2f"}).$shareTxt"
      case "diversity" =>
        val extremity = (stats.setMean, stats.overallMean, stats.overallSd) match {
          case (Some(m), Some(mu), Some(sd)) if sd > 0 =>
            val k   = (m - mu) / sd
            val dir = if (k >= 0) "above" else "below"
            f" Their mean '$attr' is $m%.3f, ${math.abs(k)}%.2f standard deviations $dir the overall mean ($mu%.3f)."
          case (Some(m), Some(mu), _) =>
            f" Their mean '$attr' is $m%.3f vs an overall mean of $mu%.3f."
          case _ => ""
        }
        s"Groups where ${partition.labelAttr} = '$setLabel' contribute most to the diversity " +
          s"of column '$attr' (I=${f"$interestingness%.3f"}, Cstd=${f"$stdContribution%.2f"}).$extremity"
      case other =>
        s"Rows where ${partition.labelAttr} = '$setLabel' explain column '$attr' ($other)."
    }
}
