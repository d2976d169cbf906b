"""Shared builders for strategy-context fixtures."""
from swipesim.core import BitrateLadder, SessionConfig, VideoSpec
from swipesim.retention import RetentionThresholds
from swipesim.strategy import PlayerView, StrategyContext, swipe_profile

LADDER3 = (750, 1200, 1850)


def make_view(video_index=0, chunk_count=10, downloaded=0, k_min=2,
              k_early=2, k_long=8, swipe_cdf=None, ladder=LADDER3,
              category="cat", chunk_duration_s=1.0):
    spec = VideoSpec(id=f"v{video_index}", category=category,
                     chunk_count=chunk_count,
                     chunk_duration_s=chunk_duration_s,
                     ladder=BitrateLadder(tuple(ladder)))
    if swipe_cdf is None:
        swipe_cdf = tuple(0.0 if k < chunk_count else 1.0
                          for k in range(1, chunk_count + 1))
    return PlayerView(spec=spec, video_index=video_index,
                      downloaded=downloaded,
                      thresholds=RetentionThresholds(k_min, k_early, k_long),
                      swipe=swipe_profile(swipe_cdf))


def make_ctx(players=None, c_pred=2000.0, c_ave=2000.0, c_min=1500.0,
             r_last=750, rebuffer_flag=False, config=None, buffered=None,
             lead=None, **view_kwargs):
    """A context over ``players``, or over five default views with
    ``view_kwargs`` applied to the first. The playhead's ``buffered``
    defaults to every chunk of ``players[0]`` (playback not yet started)
    and ``lead`` to ``buffered``."""
    if players is None:
        players = [make_view(0, **view_kwargs),
                   make_view(1), make_view(2), make_view(3), make_view(4)]
    if buffered is None:
        buffered = players[0].downloaded
    return StrategyContext(players=list(players), buffered=buffered,
                           lead=float(buffered) if lead is None else lead,
                           c_pred=c_pred, c_ave=c_ave,
                           c_min=c_min, r_last=r_last,
                           rebuffer_flag=rebuffer_flag,
                           config=config or SessionConfig())
